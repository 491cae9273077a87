package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	runner := &Runner{Opt: Options{Quick: true, Seed: 1}}
	rep, err := runner.Run(Registry())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatal("quick run left specs unrun")
	}
	tables := rep.Tables()
	if len(tables) != 12 {
		t.Fatalf("got %d tables", len(tables))
	}
	for _, tab := range tables {
		if tab.ID == "" || tab.Title == "" || tab.Claim == "" {
			t.Errorf("table %q missing metadata", tab.ID)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("table %s has no rows", tab.ID)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Columns) {
				t.Errorf("table %s row width %d != %d columns", tab.ID, len(row), len(tab.Columns))
			}
			for _, cell := range row {
				if strings.Contains(cell, "NO") {
					t.Errorf("table %s reports a failure row: %v", tab.ID, row)
				}
			}
		}
		var buf bytes.Buffer
		tab.Render(&buf)
		if !strings.Contains(buf.String(), tab.ID) {
			t.Errorf("render of %s missing its ID", tab.ID)
		}
	}
	// Every record must pass the emission schema, and the failure columns
	// the tables surface must agree with the records.
	if err := rep.RecordSet().Validate(); err != nil {
		t.Errorf("record set invalid: %v", err)
	}
	for _, rec := range rep.RecordSet().Records {
		if !rec.OK {
			t.Errorf("failed record: %s: %s", rec.Spec.Key(), rec.Err)
		}
	}
	// The markdown report renders with every experiment section present.
	var md bytes.Buffer
	if err := rep.WriteMarkdown(&md); err != nil {
		t.Fatalf("WriteMarkdown: %v", err)
	}
	for _, id := range IDs() {
		if !strings.Contains(md.String(), "## "+id+" ") {
			t.Errorf("markdown report missing section for %s", id)
		}
	}
}

func TestByID(t *testing.T) {
	if ByID("E3") == nil || ByID("e3") == nil {
		t.Error("ByID lookup failed")
	}
	if ByID("E42") != nil {
		t.Error("unknown ID resolved")
	}
	if len(IDs()) != 12 {
		t.Error("IDs() wrong length")
	}
	for i, exp := range Registry() {
		if exp.ID != IDs()[i] {
			t.Errorf("registry[%d] = %s, want %s", i, exp.ID, IDs()[i])
		}
		if exp.Specs == nil || exp.Run == nil || exp.Table == nil {
			t.Errorf("%s missing a pipeline hook", exp.ID)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{1, 2, 3})
	if s.mean != 2 || s.min != 1 || s.max != 3 {
		t.Errorf("summarize = %+v", s)
	}
	if z := summarize(nil); z.mean != 0 {
		t.Errorf("empty summarize = %+v", z)
	}
}

func TestSpecSeedsIndependent(t *testing.T) {
	a := RunSpec{Experiment: "E1", Unit: "ring", N: 256, Trial: 0}
	b := RunSpec{Experiment: "E1", Unit: "ring", N: 256, Trial: 1}
	c := RunSpec{Experiment: "E1", Unit: "tree", N: 256, Trial: 0}
	if a.Seed(1) == b.Seed(1) || a.Seed(1) == c.Seed(1) {
		t.Error("distinct specs share a seed")
	}
	if a.Seed(1) == a.Seed(2) {
		t.Error("master seed ignored")
	}
	if a.Seed(1) != a.Seed(1) {
		t.Error("seed not deterministic")
	}
	// Trials of one (experiment, unit, size) share their instance seed.
	if a.instanceSeed(1) != b.instanceSeed(1) {
		t.Error("trials of one unit disagree on the instance seed")
	}
	if a.instanceSeed(1) == c.instanceSeed(1) {
		t.Error("different units share an instance seed")
	}
}
