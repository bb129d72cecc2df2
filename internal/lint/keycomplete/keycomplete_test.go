package keycomplete_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint/keycomplete"
	"repro/internal/lint/linttest"
)

// TestFixture proves the acceptance criterion: a scenario field
// Resolve never reads is named, while a field read one call away from
// Resolve and an annotated observer pass.
func TestFixture(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "mod"), keycomplete.Analyzer)
}
