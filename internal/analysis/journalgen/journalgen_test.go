package journalgen_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/journalgen"
)

func TestJournalGen(t *testing.T) {
	analysistest.Run(t, journalgen.Analyzer,
		"a", "clean", "repro/internal/engine", "repro/internal/ssta")
}
