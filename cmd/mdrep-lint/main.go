// mdrep-lint is the project's custom static-analysis suite packaged as a
// vet tool. It enforces the invariants the reputation engine's
// correctness rests on but the compiler cannot check: bit-identical
// float accumulation for journal replay (detfloat), injected clocks and
// seeded randomness in deterministic packages (wallclock), the
// core.Sharded locking discipline (locksafe), allocation-free
// //mdrep:hotpath functions (allocfree), fault-taxonomy classification
// at the RPC boundary (faultwrap), bounded metric label cardinality
// (metriclabel), and the goroutine-leak TestMain guard (leakmain). See
// DESIGN.md §10.
//
// Run it through the go tool so package loading, caching and test files
// are handled exactly as in a normal vet invocation:
//
//	go build -o bin/mdrep-lint ./cmd/mdrep-lint
//	go vet -vettool=bin/mdrep-lint ./...
//
// or simply `make lint`.
//
// # Applying suggested fixes
//
// Several analyzers attach machine-applicable fixes (faultwrap's
// fault.Terminal wrapping, for example). The unitchecker protocol that
// vettools speak deliberately ignores vet's -fix flag, so fixes are
// applied out-of-band: run vet in JSON mode and pipe the diagnostics
// back through this binary —
//
//	go vet -vettool=bin/mdrep-lint -json ./... | bin/mdrep-lint -applyfix
//
// or simply `make lint-fix`. The applier takes the first suggested fix
// of each diagnostic, rejects overlapping edits, and rewrites the files
// in place; rerun `make lint` afterwards to confirm the tree is clean.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis/unitchecker"

	"mdrep/internal/analysis/suite"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-applyfix" {
		if err := applyFixes(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "mdrep-lint -applyfix:", err)
			os.Exit(1)
		}
		return
	}
	unitchecker.Main(suite.Analyzers()...)
}

// jsonEdit mirrors the analysisflags JSONTextEdit schema: zero-based
// half-open byte offsets into the original file.
type jsonEdit struct {
	Filename string `json:"filename"`
	Start    int    `json:"start"`
	End      int    `json:"end"`
	New      string `json:"new"`
}

type jsonFix struct {
	Message string     `json:"message"`
	Edits   []jsonEdit `json:"edits"`
}

type jsonDiagnostic struct {
	Posn           string    `json:"posn"`
	Message        string    `json:"message"`
	SuggestedFixes []jsonFix `json:"suggested_fixes"`
}

// applyFixes reads the `go vet -json` stream (one JSON object per
// compilation unit, interleaved with `# package` comment lines emitted
// by the go tool), collects the first suggested fix of every
// diagnostic, and applies the edits file by file.
func applyFixes(in io.Reader, out io.Writer) error {
	edits, err := collectEdits(in)
	if err != nil {
		return err
	}
	if len(edits) == 0 {
		fmt.Fprintln(out, "no suggested fixes in input")
		return nil
	}
	files := map[string][]jsonEdit{}
	for _, e := range edits {
		files[e.Filename] = append(files[e.Filename], e)
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n, err := applyToFile(name, files[name])
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s: applied %d edit(s)\n", name, n)
	}
	return nil
}

// collectEdits decodes the concatenated JSON trees, skipping the go
// tool's `# package` lines, and flattens every diagnostic's first
// suggested fix into a single edit list.
func collectEdits(in io.Reader) ([]jsonEdit, error) {
	raw, err := io.ReadAll(in)
	if err != nil {
		return nil, err
	}
	var kept []string
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		kept = append(kept, line)
	}
	dec := json.NewDecoder(strings.NewReader(strings.Join(kept, "\n")))
	var edits []jsonEdit
	for {
		// pkg -> analyzer -> []diagnostic (or an error object, which
		// unmarshals to an empty list and is ignored here).
		var tree map[string]map[string]json.RawMessage
		if err := dec.Decode(&tree); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding vet -json stream: %v", err)
		}
		for _, analyzers := range tree {
			for _, raw := range analyzers {
				var diags []jsonDiagnostic
				if err := json.Unmarshal(raw, &diags); err != nil {
					continue // per-analyzer error object, not a diagnostic list
				}
				for _, d := range diags {
					if len(d.SuggestedFixes) == 0 {
						continue
					}
					edits = append(edits, d.SuggestedFixes[0].Edits...)
				}
			}
		}
	}
	return edits, nil
}

// applyToFile applies edits to one file, back to front so earlier
// offsets stay valid. Overlapping edits abort the whole file: offsets
// were computed against the original bytes and a partial application
// would corrupt it.
func applyToFile(name string, edits []jsonEdit) (int, error) {
	data, err := os.ReadFile(name)
	if err != nil {
		return 0, err
	}
	sort.SliceStable(edits, func(i, j int) bool {
		if edits[i].Start != edits[j].Start {
			return edits[i].Start > edits[j].Start
		}
		return edits[i].End > edits[j].End
	})
	for i, e := range edits {
		if e.Start < 0 || e.End < e.Start || e.End > len(data) {
			return 0, fmt.Errorf("%s: edit [%d,%d) out of range (file is %d bytes; stale diagnostics?)", name, e.Start, e.End, len(data))
		}
		if i > 0 && edits[i-1].Start < e.End {
			return 0, fmt.Errorf("%s: overlapping suggested fixes at byte %d; apply and re-vet in two passes", name, e.Start)
		}
		data = append(data[:e.Start], append([]byte(e.New), data[e.End:]...)...)
	}
	info, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return len(edits), os.WriteFile(name, data, info.Mode().Perm())
}
