package dht

import (
	"errors"
	"mdrep/internal/fault"
	"time"
)

// Maintainer drives a node's periodic upkeep in the background:
// stabilisation, incremental finger repair, re-reading the remembered
// root arcs, and storage sweeps. It is the loop a deployed node runs for
// its lifetime (cmd/mdrep-dht uses it).
type Maintainer struct {
	node     *Node
	interval time.Duration
	stop     chan struct{}
	done     chan struct{}
}

// Maintain starts the upkeep loop at the given interval and returns its
// handle; call Stop to halt it. One finger and one remembered root arc
// are refreshed per tick (full rebuilds are only needed at cold start),
// and storage is swept once per full finger rotation.
func Maintain(node *Node, interval time.Duration) (*Maintainer, error) {
	if node == nil {
		return nil, fault.Terminal(errors.New("dht: nil node"))
	}
	if interval <= 0 {
		return nil, fault.Terminal(errors.New("dht: non-positive maintenance interval"))
	}
	m := &Maintainer{
		node:     node,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go m.loop()
	return m, nil
}

func (m *Maintainer) loop() {
	defer close(m.done)
	ticker := time.NewTicker(m.interval)
	defer ticker.Stop()
	finger := 0
	for {
		select {
		case <-ticker.C:
			m.node.Stabilize()
			m.node.FixFinger(finger % Bits)
			m.node.refreshArc(finger)
			finger++
			if finger%Bits == 0 {
				m.node.cfg.Storage.Sweep()
			}
		case <-m.stop:
			return
		}
	}
}

// Stop halts the loop and waits for it to exit.
func (m *Maintainer) Stop() {
	close(m.stop)
	<-m.done
}
