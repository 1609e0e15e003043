package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"mdrep/internal/eval"
	"mdrep/internal/metrics"
	"mdrep/internal/sparse"
)

// observedCore is the surface TestEngineObserverCounts drives: the bare
// Engine (through bareCore) and Sharded both emit the EngineObs series.
type observedCore interface {
	SetObserver(o *EngineObs)
	Vote(p int, f eval.FileID, value float64, now time.Duration) error
	RecordDownload(downloader, uploader int, f eval.FileID, size int64, now time.Duration) error
	RateUser(i, j int, value float64) error
	TM(now time.Duration) (*sparse.CSR, error)
	Reputations(i int, now time.Duration) (map[int]float64, error)
	BuildRM(now time.Duration) (*sparse.CSR, error)
	Epoch() uint64
}

// bareCore adapts the Engine's build-named TM accessor.
type bareCore struct{ *Engine }

func (b bareCore) TM(now time.Duration) (*sparse.CSR, error) { return b.BuildTM(now) }

// TestEngineObserverCounts pins the engine metric series for the bare
// Engine and for Sharded at K = 1 and K = 4. At K = 1 every count equals
// the bare engine's; at K = 4 the dirty-row and refreeze totals do,
// while each shard worker records its own build sample.
func TestEngineObserverCounts(t *testing.T) {
	for _, k := range []int{0, 1, 4} { // 0 is the bare Engine
		name := "engine"
		if k > 0 {
			name = fmt.Sprintf("sharded/k=%d", k)
		}
		t.Run(name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			// Parallel shard workers read the clock concurrently.
			var ticks atomic.Int64
			o := NewEngineObs(reg, func() time.Time {
				return time.Unix(0, ticks.Add(1)*int64(time.Microsecond))
			})
			var c observedCore = bareCore{mustEngine(t, 4, DefaultConfig())}
			if k > 0 {
				s, err := NewSharded(4, k, DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				c = s
			}
			c.SetObserver(o)

			if err := c.Vote(0, "f1", 0.9, 0); err != nil {
				t.Fatal(err)
			}
			if err := c.Vote(1, "f1", 0.8, 0); err != nil {
				t.Fatal(err)
			}
			if err := c.RecordDownload(0, 1, "f1", 100, 0); err != nil {
				t.Fatal(err)
			}
			if err := c.RateUser(0, 1, 0.7); err != nil {
				t.Fatal(err)
			}
			if _, err := c.TM(0); err != nil {
				t.Fatal(err)
			}

			// First build recomputes all n rows of each dimension, one
			// build sample per worker (the bare engine is one worker).
			wantSpans := uint64(max(k, 1))
			for _, dim := range []string{"fm", "dm", "um"} {
				if got := reg.Counter("engine_dirty_rows_total", "dim", dim).Load(); got != 4 {
					t.Errorf("dirty rows %s = %d, want 4", dim, got)
				}
				if got := reg.Histogram("engine_build_seconds", metrics.DurationBuckets, "dim", dim).Count(); got != wantSpans {
					t.Errorf("build spans %s = %d, want %d", dim, got, wantSpans)
				}
			}
			if got := reg.Counter("engine_tm_refreeze_total").Load(); got != c.Epoch() {
				t.Errorf("refreeze count %d != epoch %d", got, c.Epoch())
			}

			// An incremental patch recomputes only the dirtied rows.
			if err := c.RateUser(2, 3, 0.5); err != nil {
				t.Fatal(err)
			}
			if _, err := c.TM(0); err != nil {
				t.Fatal(err)
			}
			if got := reg.Counter("engine_dirty_rows_total", "dim", "um").Load(); got != 5 {
				t.Errorf("um dirty rows after patch = %d, want 4+1", got)
			}
			for _, dim := range []string{"fm", "dm"} {
				if got := reg.Counter("engine_dirty_rows_total", "dim", dim).Load(); got != 4 {
					t.Errorf("dirty rows %s after a um-only patch = %d, want 4", dim, got)
				}
			}
			if got := reg.Counter("engine_tm_refreeze_total").Load(); got != c.Epoch() || got != 2 {
				t.Errorf("refreeze count %d, epoch %d, want both 2", got, c.Epoch())
			}

			if _, err := c.Reputations(0, 0); err != nil {
				t.Fatal(err)
			}
			if got := reg.Histogram("engine_reputation_walk_seconds", metrics.DurationBuckets).Count(); got != 1 {
				t.Errorf("reputation walk spans = %d, want 1", got)
			}
			if _, err := c.BuildRM(0); err != nil {
				t.Fatal(err)
			}
			if got := reg.Histogram("engine_build_seconds", metrics.DurationBuckets, "dim", "rm").Count(); got != 1 {
				t.Errorf("rm build spans = %d, want 1", got)
			}
		})
	}
}
