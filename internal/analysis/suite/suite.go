// Package suite enumerates the mdrep analyzer suite: the custom
// go/analysis passes that mechanically enforce the engine's determinism,
// locking, allocation, fault-taxonomy, metric-cardinality and
// leak-check conventions (DESIGN.md §10). cmd/mdrep-lint wires the suite
// into `go vet -vettool`; the meta-test in this package asserts the
// suite is clean on the repository itself.
package suite

import (
	"golang.org/x/tools/go/analysis"

	"mdrep/internal/analysis/allocfree"
	"mdrep/internal/analysis/detfloat"
	"mdrep/internal/analysis/faultwrap"
	"mdrep/internal/analysis/leakmain"
	"mdrep/internal/analysis/locksafe"
	"mdrep/internal/analysis/metriclabel"
	"mdrep/internal/analysis/wallclock"
)

// Analyzers returns the full mdrep lint suite.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detfloat.Analyzer,
		wallclock.Analyzer,
		locksafe.Analyzer,
		allocfree.Analyzer,
		faultwrap.Analyzer,
		metriclabel.Analyzer,
		leakmain.Analyzer,
	}
}
