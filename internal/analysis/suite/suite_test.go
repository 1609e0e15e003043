package suite_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"golang.org/x/tools/go/analysis"

	"mdrep/internal/analysis/suite"
)

func TestAnalyzersAreValid(t *testing.T) {
	analyzers := suite.Analyzers()
	if len(analyzers) != 7 {
		t.Fatalf("suite has %d analyzers, want 7", len(analyzers))
	}
	if err := analysis.Validate(analyzers); err != nil {
		t.Fatal(err)
	}
}

// TestRepoIsClean builds cmd/mdrep-lint and runs it as a vettool over the
// whole repository: the codebase must satisfy its own invariants. A
// regression that reintroduces a violation (or a new analyzer that flags
// existing code without a fix or an //mdrep:allow) fails here before CI.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and vets the whole repo")
	}
	root := repoRoot(t)
	tool := filepath.Join(t.TempDir(), "mdrep-lint")

	build := exec.Command("go", "build", "-o", tool, "./cmd/mdrep-lint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building mdrep-lint: %v\n%s", err, out)
	}

	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = root
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("mdrep-lint found violations:\n%s", out)
	}
}

func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}
