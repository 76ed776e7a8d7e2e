package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"asyncmediator/internal/sim"
)

func TestRunJSONToStdout(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-experiment", "e7", "-trials", "1", "-parallel", "2", "-json", "-"}, &buf); err != nil {
		t.Fatal(err)
	}
	var rep sim.Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not a JSON report: %v\n%s", err, buf.String())
	}
	if len(rep.Tables) != 1 || rep.Tables[0].ID != "e7" {
		t.Fatalf("unexpected report: %+v", rep)
	}
	if strings.Contains(buf.String(), "== E7") {
		t.Fatal("-json - must suppress the text tables")
	}
}

func TestRunTextTables(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-experiment", "e7", "-trials", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "== E7: synchronous (R1) vs asynchronous") {
		t.Fatalf("missing rendered table:\n%s", buf.String())
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-experiment", "e99"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("want unknown-experiment error, got %v", err)
	}
}
