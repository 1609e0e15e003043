// Stub of mdrep's internal/core package: just enough surface for the
// locksafe facade-bypass fixtures. The analyzer matches on (package name
// "core", type "Engine"), so this stands in for the real package.
package core

type Config struct{ Dims int }

type Engine struct {
	cfg Config
	n   int
	acc []float64
}

func NewEngine(n int, cfg Config) *Engine {
	return &Engine{cfg: cfg, n: n, acc: make([]float64, n)}
}

func (e *Engine) N() int         { return e.n }
func (e *Engine) Config() Config { return e.cfg }

func (e *Engine) ApplyEvent(i int, v float64) error {
	e.acc[i] += v
	return nil
}

// Score looks read-only but is still unsafe on the bare engine (the real
// Engine patches caches on read), so it is not in the immutable set.
func (e *Engine) Score(i int) float64 { return e.acc[i] }
