package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"mdrep/internal/metrics"
)

// TestEngineObserverCounts pins the engine metric series for Sharded at
// K = 1 and K = 4: the dirty-row and patch totals are the same for any
// K, while each shard worker records its own build sample.
func TestEngineObserverCounts(t *testing.T) {
	for _, k := range []int{1, 4} {
		t.Run(fmt.Sprintf("sharded/k=%d", k), func(t *testing.T) {
			reg := metrics.NewRegistry()
			// Parallel shard workers read the clock concurrently.
			var ticks atomic.Int64
			o := NewEngineObs(reg, func() time.Time {
				return time.Unix(0, ticks.Add(1)*int64(time.Microsecond))
			})
			c, err := NewSharded(4, k, DefaultConfig())
			if err != nil {
				t.Fatal(err)
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
			// build sample per worker.
			wantSpans := uint64(k)
			for _, dim := range []string{"fm", "dm", "um"} {
				if got := reg.Counter("engine_dirty_rows_total", "dim", dim).Load(); got != 4 {
					t.Errorf("dirty rows %s = %d, want 4", dim, got)
				}
				if got := reg.Histogram("engine_build_seconds", metrics.DurationBuckets, "dim", dim).Count(); got != wantSpans {
					t.Errorf("build spans %s = %d, want %d", dim, got, wantSpans)
				}
			}
			if got := reg.Counter("engine_tm_refreeze_total").Load(); got != 1 {
				t.Errorf("refreeze count %d, want 1", got)
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
			if got := reg.Counter("engine_tm_refreeze_total").Load(); got != 2 {
				t.Errorf("refreeze count %d, want 2", got)
			}

			if _, err := c.Reputations(0, 0); err != nil {
				t.Fatal(err)
			}
			if got := reg.Histogram("engine_reputation_walk_seconds", metrics.DurationBuckets).Count(); got != 1 {
				t.Errorf("reputation walk spans = %d, want 1", got)
			}
		})
	}
}
