// Positive fixture: the journal gets no facade exemption. Like every
// package outside core it drives core.Sharded, so building and feeding a
// bare engine here is flagged.
package journal

import "core"

func Replay(events []float64) *core.Engine {
	eng := core.NewEngine(len(events), core.Config{})
	for i, v := range events {
		_ = eng.ApplyEvent(i, v) // want `direct \(\*core\.Engine\)\.ApplyEvent outside the core`
	}
	return eng
}
