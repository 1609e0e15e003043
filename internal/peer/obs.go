package peer

import (
	"io"

	"mdrep/internal/metrics"
)

// ExchangeObs counts evaluation-exchange traffic: bytes on the wire in
// each direction plus fetch/serve call counts. One observer can be
// shared by the TCP client and server of a process so the exported
// series cover all exchange traffic.
type ExchangeObs struct {
	bytesIn  *metrics.Counter // peer_exchange_bytes_total{dir="in"}
	bytesOut *metrics.Counter // peer_exchange_bytes_total{dir="out"}
	fetches  *metrics.Counter // peer_exchange_fetches_total
	serves   *metrics.Counter // peer_exchange_serves_total
}

// NewExchangeObs registers the exchange metric families in reg. A nil
// registry returns a nil (disabled) observer.
func NewExchangeObs(reg *metrics.Registry) *ExchangeObs {
	if reg == nil {
		return nil
	}
	return &ExchangeObs{
		bytesIn:  reg.Counter("peer_exchange_bytes_total", "dir", "in"),
		bytesOut: reg.Counter("peer_exchange_bytes_total", "dir", "out"),
		fetches:  reg.Counter("peer_exchange_fetches_total"),
		serves:   reg.Counter("peer_exchange_serves_total"),
	}
}

// wrap decorates rw so reads and writes tally into the observer; a nil
// observer returns rw unchanged.
func (o *ExchangeObs) wrap(rw io.ReadWriter) io.ReadWriter {
	if o == nil {
		return rw
	}
	return countingRW{rw: rw, obs: o}
}

func (o *ExchangeObs) countFetch() {
	if o != nil {
		o.fetches.Inc()
	}
}

func (o *ExchangeObs) countServe() {
	if o != nil {
		o.serves.Inc()
	}
}

// countingRW tallies wire traffic around an inner stream.
type countingRW struct {
	rw  io.ReadWriter
	obs *ExchangeObs
}

func (c countingRW) Read(p []byte) (int, error) {
	n, err := c.rw.Read(p)
	c.obs.bytesIn.Add(uint64(n))
	return n, err
}

func (c countingRW) Write(p []byte) (int, error) {
	n, err := c.rw.Write(p)
	c.obs.bytesOut.Add(uint64(n))
	return n, err
}
