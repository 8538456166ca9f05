package bench

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fcae/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/engine_reports.golden")

// TestEngineReportsGolden pins the modeled engine results (Table V / Fig 9,
// Figs 12/13, Table VII, stage utilization and the ablations) byte for
// byte at the Quick scale. These are the paper reproduction in
// EXPERIMENTS.md: a change to staging, the merge loop or the cycle model
// that moves any cell shows up here. Regenerate deliberately with
// `go test ./internal/bench -run TestEngineReportsGolden -update`.
func TestEngineReportsGolden(t *testing.T) {
	tv, f9 := TableV(Quick)
	f12, f13 := Fig12And13(Quick)
	reports := []*Report{
		tv, f9, f12, f13, TableVII(),
		StageUtilization(Quick, core.DefaultConfig()),
		StageUtilization(Quick, core.MultiInputConfig()),
		Ablations(Quick),
	}
	var b strings.Builder
	for _, r := range reports {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	got := b.String()

	path := filepath.Join("testdata", "engine_reports.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("engine reports drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
