package locksafe_test

import (
	"testing"

	"mdrep/internal/analysis/analyzertest"
	"mdrep/internal/analysis/locksafe"
)

func TestLockSafe(t *testing.T) {
	analyzertest.Run(t, "testdata", locksafe.Analyzer, "lockbox", "shardhost")
}
