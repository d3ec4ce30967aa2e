package collector

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/sim"
)

// The district-plane suite: admission, drain, timeout diagnostics and
// checkpoint restore of scatternet district keyspaces, without running any
// piconet world — the restored fixture already holds every fold partial.

// districtFixture is a sealed district checkpoint of a two-piconet,
// one-bridge ring campaign (seed 3, one hour, SIRAs only) taken after both
// piconet partials and the overlay partial were applied, before the
// agent's Done. It was written in the layout of PROTOCOL.md §12.
const districtFixture = "testdata/district_checkpoint.ckpt"

// districtFixtureRollup is the SHA-256 of the metro rollup rendered from
// the fixture's completed district — the single-process
// `btcampaign -scatternet -piconets 2 -topology ring -rollup -stream`
// rollup of the same campaign.
const districtFixtureRollup = "6d3f1a02281d5ccc918adac53b34748c18f46a3f237567c33f873e0839c2f32f"

// fixtureDistrict is the district the fixture was recorded under,
// checkpointing at path.
func fixtureDistrict(path string) DistrictConfig {
	return DistrictConfig{Key: "fixture",
		Campaign:     CampaignID{Seed: 3, Duration: sim.Hour, Scenario: 3},
		Net:          ScatterNet{Piconets: 2, Bridges: 1, Topology: "ring"},
		ScenarioName: "With only SIRAs", Lo: 0, Hi: 2, CheckpointPath: path}
}

// districtHello opens a raw district session claiming [lo, hi) and returns
// the sink's first answer.
func districtHello(t *testing.T, addr string, dc DistrictConfig, lo, hi int) *Frame {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := Hello{Campaign: dc.Campaign, Keyspace: dc.Key, Testbed: scatterRangeKey(lo, hi),
		Scatter: &ScatterHello{Net: dc.Net, Lo: lo, Hi: hi}}
	if err := writeControl(conn, frameHello, hello); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	fr, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

// TestDistrictExactRange pins PROTOCOL §12's exact-range rule: a district
// session must claim exactly the district's range; a sub-range and an
// over-range are refused with the fatal unknown-shard reject.
func TestDistrictExactRange(t *testing.T) {
	dc := fixtureDistrict("")
	dc.Net.Piconets = 4
	dc.Hi = 3
	sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0", Districts: []DistrictConfig{dc}})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	for _, r := range [][2]int{{0, 2}, {0, 4}, {1, 3}} {
		fr := districtHello(t, sink.Addr(), dc, r[0], r[1])
		if fr.Kind != KindReject || fr.Reject.Code != RejectUnknownShard || fr.Reject.Retryable() {
			t.Errorf("range [%d:%d) of district [0:3): got %+v, want a fatal %s reject",
				r[0], r[1], fr.Reject, RejectUnknownShard)
		}
	}
	if fr := districtHello(t, sink.Addr(), dc, 0, 3); fr.Kind != KindResume {
		t.Fatalf("the district's own range was not resumed: %+v", fr)
	}
}

// TestDistrictDrainRejectsRetryable: a draining sink answers a district
// Hello with the retryable draining reject, exactly as it does a campaign
// Hello, so the district agent backs off instead of dying.
func TestDistrictDrainRejectsRetryable(t *testing.T) {
	dc := fixtureDistrict("")
	sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0", Districts: []DistrictConfig{dc}})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	if err := sink.Drain(); err != nil {
		t.Fatal(err)
	}
	fr := districtHello(t, sink.Addr(), dc, dc.Lo, dc.Hi)
	if fr.Kind != KindReject || fr.Reject.Code != RejectDraining || !fr.Reject.Retryable() {
		t.Fatalf("district Hello to a draining sink: got %+v, want a retryable %s reject",
			fr.Reject, RejectDraining)
	}
}

// TestWaitDistrictTimeoutDiagnostics: an incomplete district's timeout
// error says how far the fold got and that the overlay partial is missing.
func TestWaitDistrictTimeoutDiagnostics(t *testing.T) {
	sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0", Districts: []DistrictConfig{fixtureDistrict("")}})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	_, err = sink.WaitDistrict("fixture", 20*time.Millisecond)
	if err == nil {
		t.Fatal("WaitDistrict on an empty district returned no error")
	}
	for _, want := range []string{`district "fixture" incomplete`, "0/2 piconets folded", "overlay partial not received"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("timeout error %q lacks %q", err, want)
		}
	}
}

// TestDistrictCheckpointFixtureCompletes restores a district from a
// checkpoint written before the session engine was shared, releases its
// agent — whose Resume cursor already covers every work item, so it ships
// only its Done — and requires the completed partial to render the
// single-process rollup byte for byte.
func TestDistrictCheckpointFixtureCompletes(t *testing.T) {
	sealed, err := os.ReadFile(districtFixture)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fixture.district.ckpt")
	if err := os.WriteFile(path, sealed, 0o644); err != nil {
		t.Fatal(err)
	}
	dc := fixtureDistrict(path)
	sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0", Districts: []DistrictConfig{dc}})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	if km := sink.Metrics().Keyspaces; len(km) != 1 || km[0].FoldedPiconets != 2 || km[0].Complete {
		t.Fatalf("restored district metrics: %+v", km)
	}
	agent, err := NewScatterAgent(ScatterAgentConfig{Addr: sink.Addr(), Keyspace: dc.Key,
		Campaign: dc.Campaign, Net: dc.Net, Lo: dc.Lo, Hi: dc.Hi,
		RunPiconet: func(p int) (*analysis.PiconetPartial, error) {
			return nil, fmt.Errorf("piconet %d re-run despite the restored cursor", p)
		},
		RunOverlay: func() (*analysis.OverlayPartial, error) {
			return nil, fmt.Errorf("overlay re-run despite the restored cursor")
		},
		StallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.Run(); err != nil {
		t.Fatal(err)
	}
	if sent, _ := agent.Stats(); sent != 0 {
		t.Errorf("agent sent %d work items, want 0", sent)
	}
	p, err := sink.WaitDistrict(dc.Key, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	roll, _, err := MergeDistricts([]*DistrictPartial{p})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(roll.Render()))); got != districtFixtureRollup {
		t.Errorf("restored district renders rollup %s, want %s", got, districtFixtureRollup)
	}
}

// fixturePayload returns the fixture checkpoint's JSON payload, unsealed.
func fixturePayload(t testing.TB) []byte {
	t.Helper()
	payload, err := ReadFileDurable(districtFixture)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// resealFixture edits the fixture's JSON document and writes it, re-sealed,
// to a fresh checkpoint path. Numbers stay json.Numbers, so every field the
// edit leaves alone keeps its exact bytes.
func resealFixture(t *testing.T, edit func(doc map[string]any)) string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(fixturePayload(t)))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	edit(doc)
	payload, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fixture.district.ckpt")
	if err := WriteFileDurable(path, payload); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDistrictRestoreRejectsContradictoryFold: a district checkpoint whose
// fold contradicts its range — rows out of order or past the range, an
// overlay the range does not owe or owes only after every piconet, a final
// cursor of another range — is refused at restore with a one-line
// corrupt-checkpoint error naming the file, never resumed with a cursor the
// fold does not back.
func TestDistrictRestoreRejectsContradictoryFold(t *testing.T) {
	rows := func(doc map[string]any) []any { return doc["fold"].(map[string]any)["rows"].([]any) }
	setRows := func(doc map[string]any, r []any) { doc["fold"].(map[string]any)["rows"] = r }
	row := func(doc map[string]any, i int, piconet int) any {
		r := map[string]any{}
		for k, v := range rows(doc)[i].(map[string]any) {
			r[k] = v
		}
		r["Piconet"] = piconet
		return r
	}
	for _, tc := range []struct {
		name string
		net  func(*ScatterNet)
		edit func(doc map[string]any)
	}{
		{"rows 0,5", nil, func(doc map[string]any) {
			setRows(doc, []any{rows(doc)[0], row(doc, 1, 5)})
		}},
		{"rows 1,0", nil, func(doc map[string]any) {
			setRows(doc, []any{rows(doc)[1], rows(doc)[0]})
		}},
		{"rows past the range", nil, func(doc map[string]any) {
			setRows(doc, append(rows(doc), row(doc, 1, 2)))
		}},
		{"overlay before the last piconet", nil, func(doc map[string]any) {
			setRows(doc, rows(doc)[:1])
		}},
		{"overlay on a range that owes none", func(n *ScatterNet) { n.Bridges = 0 }, func(doc map[string]any) {
			doc["net"].(map[string]any)["bridges"] = 0
		}},
		{"final cursor of another range", nil, func(doc map[string]any) {
			doc["finals"] = map[string]any{"0:1": 3}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := resealFixture(t, tc.edit)
			dc := fixtureDistrict(path)
			if tc.net != nil {
				tc.net(&dc.Net)
			}
			sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0", Districts: []DistrictConfig{dc}})
			if err == nil {
				sink.Close()
				t.Fatal("contradictory checkpoint restored")
			}
			msg := err.Error()
			if !strings.Contains(msg, "corrupt district checkpoint "+path+":") || strings.Contains(msg, "\n") {
				t.Errorf("restore error %q is not a one-line corrupt-checkpoint error naming %s", msg, path)
			}
		})
	}
	// The unedited document, round-tripped the same way, still restores.
	sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0",
		Districts: []DistrictConfig{fixtureDistrict(resealFixture(t, func(map[string]any) {}))}})
	if err != nil {
		t.Fatalf("re-sealed fixture refused: %v", err)
	}
	sink.Close()
}

// FuzzDistrictCheckpoint throws arbitrary payloads at district restore,
// starting from the fixture: restore must never panic, and any payload it
// accepts must re-checkpoint to a fixed point — what the restored district
// writes, restored and written again, is the same bytes.
func FuzzDistrictCheckpoint(f *testing.F) {
	payload := fixturePayload(f)
	f.Add(payload)
	f.Add(payload[:len(payload)/2])
	f.Fuzz(func(t *testing.T, payload []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.district.ckpt")
		if err := WriteFileDurable(path, payload); err != nil {
			t.Fatal(err)
		}
		ten, err := newDistrict(fixtureDistrict(path))
		if err != nil {
			return
		}
		var written [2][]byte
		for i := range written {
			if err := ten.district.checkpoint(ten); err != nil {
				t.Fatalf("checkpoint %d of an accepted payload: %v", i, err)
			}
			if written[i], err = ReadFileDurable(path); err != nil {
				t.Fatal(err)
			}
			if ten, err = newDistrict(fixtureDistrict(path)); err != nil {
				t.Fatalf("restore of checkpoint %d: %v", i, err)
			}
		}
		if !bytes.Equal(written[0], written[1]) {
			t.Fatalf("re-checkpoint is not a fixed point:\n%s\n%s", written[0], written[1])
		}
	})
}
