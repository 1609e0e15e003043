// Positive/negative fixture for the facade-bypass half of locksafe.
package driver

import "core"

var global = core.NewEngine(8, core.Config{})

func badGlobal() {
	_ = global.ApplyEvent(0, 1.0) // want `direct \(\*core\.Engine\)\.ApplyEvent outside the core`
}

func badLocal() float64 {
	eng := core.NewEngine(4, core.Config{Dims: 3})
	_ = eng.ApplyEvent(1, 0.5) // want `direct \(\*core\.Engine\)\.ApplyEvent outside the core`
	return eng.Score(1)        // want `direct \(\*core\.Engine\)\.Score outside the core`
}

type node struct {
	eng *core.Engine
}

func badStructLocal() {
	nd := &node{eng: core.NewEngine(2, core.Config{})}
	_ = nd.eng.ApplyEvent(0, 1.0) // want `direct \(\*core\.Engine\)\.ApplyEvent outside the core`
}

func badClosure() func() {
	eng := core.NewEngine(2, core.Config{})
	return func() {
		_ = eng.ApplyEvent(0, 1.0) // want `direct \(\*core\.Engine\)\.ApplyEvent outside the core`
	}
}

// okParam: the engine arrived as a parameter, so the caller owns the
// locking contract.
func okParam(e *core.Engine) error {
	return e.ApplyEvent(2, 1.0)
}

// okParamStruct: reached through a parameter; same contract.
func okParamStruct(nd *node) error {
	return nd.eng.ApplyEvent(0, 1.0)
}

// okReceiver: reached through the method receiver.
func (nd *node) okReceiver() error {
	return nd.eng.ApplyEvent(0, 1.0)
}

// okImmutable: N and Config only read construction-time state.
func okImmutable() int {
	return global.N() + global.Config().Dims
}
