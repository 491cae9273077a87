package experiments

import (
	"path/filepath"
	"testing"
)

// goldenQuickRecords is the committed quick sweep under the CLI's default
// master seed. It changes only on purpose, naming each changed record and
// why in CHANGES.md. Regenerate it with (elapsed_ns is wall time, not a
// stable field, so the committed file zeroes it):
//
//	go run ./cmd/experiments -quick -out DIR
//	sed -E 's/"elapsed_ns": [0-9]+/"elapsed_ns": 0/' DIR/records.json > internal/experiments/testdata/quick.records.json
const goldenQuickRecords = "testdata/quick.records.json"

// TestQuickSweepMatchesGolden reruns the whole quick sweep and requires
// every record's stable fields — spec, outcome, values and active-per-round
// curve — to equal the committed file's, so a change that moves a single
// round count, coin or verdict anywhere in E1–E12 fails tier-1.
func TestQuickSweepMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("reruns the whole quick sweep")
	}
	want, err := LoadRecordSet(filepath.FromSlash(goldenQuickRecords))
	if err != nil {
		t.Fatal(err)
	}
	runner := &Runner{Opt: Options{Quick: true, Seed: want.Seed}}
	rep, err := runner.Run(Registry())
	if err != nil {
		t.Fatal(err)
	}
	diffs, err := DiffStable(want, rep.RecordSet())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffs {
		t.Error(d)
	}
	if !want.Quick || want.Seed != 2019 || len(want.Records) != 181 {
		t.Errorf("%s: quick=%v seed=%d with %d records, want the 181-record quick sweep under seed 2019",
			goldenQuickRecords, want.Quick, want.Seed, len(want.Records))
	}
}
