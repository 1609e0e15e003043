package eval

import (
	"testing"

	"mdrep/internal/testutil"
)

func TestMain(m *testing.M) { testutil.RunMain(m) }
