package btpan

// End-to-end integration: campaign -> JSONL persistence -> read-back ->
// identical analysis results (the cmd/btcampaign + cmd/btanalyze path). The
// distributed pipeline (agents -> sink over TCP) is distributed_test.go.
import (
	"bytes"
	"testing"

	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/logging"
	"repro/internal/sim"
)

// TestPersistenceRoundTripPreservesAnalysis writes a campaign's records to
// the JSONL wire format, reads them back, and checks the error-failure
// evidence is bit-identical.
func TestPersistenceRoundTripPreservesAnalysis(t *testing.T) {
	res := testCampaign(t)

	var userBuf, sysBuf bytes.Buffer
	allReports := res.AllReports()
	var allEntries []core.SystemEntry
	allEntries = append(allEntries, res.Random.Entries()...)
	allEntries = append(allEntries, res.Realistic.Entries()...)
	if err := logging.WriteUserReports(&userBuf, allReports); err != nil {
		t.Fatal(err)
	}
	if err := logging.WriteSystemEntries(&sysBuf, allEntries); err != nil {
		t.Fatal(err)
	}

	gotReports, err := logging.ReadUserReports(&userBuf)
	if err != nil {
		t.Fatal(err)
	}
	gotEntries, err := logging.ReadSystemEntries(&sysBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotReports) != len(allReports) || len(gotEntries) != len(allEntries) {
		t.Fatalf("round trip lost records: %d/%d reports, %d/%d entries",
			len(gotReports), len(allReports), len(gotEntries), len(allEntries))
	}
	for i := range allReports {
		if gotReports[i] != allReports[i] {
			t.Fatalf("report %d mutated in round trip", i)
		}
	}

	// Fold the read-back records as btanalyze does and compare the
	// evidence with the live pipeline's, at the fold's window and at one
	// only the batch relator serves.
	disk, err := ResultFromRecords(gotReports, gotEntries)
	if err != nil {
		t.Fatal(err)
	}
	for _, window := range []sim.Time{coalesce.PaperWindow, 10 * sim.Second} {
		live, fromDisk := res.Evidence(window), disk.Evidence(window)
		if live.TotalFailures != fromDisk.TotalFailures {
			t.Fatalf("window %v: failures diverged: live %d vs disk %d", window, live.TotalFailures, fromDisk.TotalFailures)
		}
		if len(live.Counts) != len(fromDisk.Counts) {
			t.Fatalf("window %v: evidence cells diverged: %d vs %d", window, len(live.Counts), len(fromDisk.Counts))
		}
		for k, v := range live.Counts {
			if fromDisk.Counts[k] != v {
				t.Fatalf("window %v: cell %+v diverged: %d vs %d", window, k, v, fromDisk.Counts[k])
			}
		}
	}
}

// TestTable4ColumnsOrdered checks the Table 4 assembly keeps the paper's
// column order (reboot-only first, masking last).
func TestTable4ColumnsOrdered(t *testing.T) {
	t4, err := Table4(3, 18*Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(t4.Columns) != 4 {
		t.Fatalf("%d columns", len(t4.Columns))
	}
	want := []string{"Only Reboot", "App restart and Reboot", "With only SIRAs", "SIRAs and masking"}
	for i, c := range t4.Columns {
		if c.Scenario != want[i] {
			t.Errorf("column %d = %q, want %q", i, c.Scenario, want[i])
		}
	}
	// The structural claims that must hold at any seed: manual reboot
	// recovery is the slowest; masking has the highest MTTF.
	if !(t4.Columns[0].MTTR > t4.Columns[2].MTTR) {
		t.Errorf("reboot-only MTTR (%v) should exceed SIRAs MTTR (%v)",
			t4.Columns[0].MTTR, t4.Columns[2].MTTR)
	}
	if !(t4.Columns[3].MTTF > t4.Columns[2].MTTF) {
		t.Errorf("masking MTTF (%v) should exceed SIRAs MTTF (%v)",
			t4.Columns[3].MTTF, t4.Columns[2].MTTF)
	}
}

// TestRedundantPiconetsExtension checks the paper's future-work proposal
// yields a strictly better deployment.
func TestRedundantPiconetsExtension(t *testing.T) {
	dep, err := RedundantPiconets(7, 18*Hour, 2*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Availability() <= dep.A.Availability {
		t.Errorf("redundant availability %v should beat single %v",
			dep.Availability(), dep.A.Availability)
	}
	if dep.MTBSF() <= dep.A.MTTF {
		t.Errorf("MTBSF %v should exceed single-piconet MTTF %v",
			dep.MTBSF(), dep.A.MTTF)
	}
}
