package collector

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/sim"
)

// httpGet fetches one URL and returns status + body.
func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestSinkHTTP walks the whole observability surface of a live multi-tenant
// sink: probes, metrics, campaign listing, live mid-campaign tables, HTTP
// registration, the partial export, and the drain flip of /readyz.
func TestSinkHTTP(t *testing.T) {
	batches := tpBatches(24)
	camp := CampaignID{Seed: 8, Duration: 24 * sim.Hour, Scenario: 1}
	sink, err := NewSink(SinkConfig{
		Addr: "127.0.0.1:0",
		Keyspaces: []KeyspaceConfig{
			{Key: "exp", Campaign: camp, Spec: tpSpec(), ScenarioName: "SIR-as-masking"},
		},
		SpecResolver: func(c CampaignID, testbeds []string) (analysis.StreamSpec, error) {
			if len(testbeds) == 0 {
				return tpSpec(), nil
			}
			return analysis.SubSpec(tpSpec(), testbeds)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	srv := httptest.NewServer(sink.Handler())
	defer srv.Close()

	if code, body := httpGet(t, srv.URL+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("healthz: %d %q", code, body)
	}
	if code, _ := httpGet(t, srv.URL+"/readyz"); code != 200 {
		t.Errorf("readyz before drain: %d", code)
	}

	// Metrics and campaign listing know the configured keyspace.
	code, body := httpGet(t, srv.URL+"/metricsz")
	if code != 200 {
		t.Fatalf("metricsz: %d", code)
	}
	var m SinkMetrics
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("metricsz decode: %v", err)
	}
	if len(m.Keyspaces) != 1 || m.Keyspaces[0].Key != "exp" {
		t.Fatalf("metricsz keyspaces: %+v", m.Keyspaces)
	}
	code, body = httpGet(t, srv.URL+"/campaigns")
	var kms []KeyspaceMetrics
	if code != 200 || json.Unmarshal([]byte(body), &kms) != nil || len(kms) != 1 {
		t.Fatalf("campaigns listing: %d %q", code, body)
	}

	// Live tables mid-campaign: incomplete, but already rendering.
	code, body = httpGet(t, srv.URL+"/campaigns/tables?keyspace=exp")
	if code != 200 {
		t.Fatalf("tables: %d %q", code, body)
	}
	var lt LiveTables
	if err := json.Unmarshal([]byte(body), &lt); err != nil {
		t.Fatal(err)
	}
	if lt.Complete || lt.Table2 == "" || lt.Table4 == nil || lt.Table4.Scenario != "SIR-as-masking" {
		t.Errorf("mid-campaign tables: complete=%v scenario=%q", lt.Complete, lt.Table4.Scenario)
	}
	if code, _ := httpGet(t, srv.URL+"/campaigns/tables?keyspace=nope"); code != 404 {
		t.Errorf("tables for unknown keyspace: %d, want 404", code)
	}

	// Partial before completion: known keyspace, not ready yet.
	if code, _ := httpGet(t, srv.URL+"/campaigns/partial?keyspace=exp"); code != 409 {
		t.Errorf("partial before completion: %d, want 409", code)
	}
	if code, _ := httpGet(t, srv.URL+"/campaigns/partial?keyspace=nope"); code != 404 {
		t.Errorf("partial for unknown keyspace: %d, want 404", code)
	}

	// HTTP registration through the SpecResolver.
	reg := `{"key":"new","campaign":{"seed":9,"duration":86400000000000,"scenario":2},"testbeds":["alpha"]}`
	resp, err := http.Post(srv.URL+"/campaigns", "application/json", strings.NewReader(reg))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d", resp.StatusCode)
	}
	code, body = httpGet(t, srv.URL+"/campaigns")
	if json.Unmarshal([]byte(body), &kms); len(kms) != 2 {
		t.Fatalf("campaigns after register: %d %q", code, body)
	}
	// Duplicate registration is refused.
	resp, err = http.Post(srv.URL+"/campaigns", "application/json", strings.NewReader(reg))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate register: %d, want 409", resp.StatusCode)
	}

	// Run the configured campaign to completion; tables flip to complete and
	// the partial export appears.
	agents := ksAgents(t, sink.Addr(), "exp", camp, batches)
	finishKSAgents(t, agents, 30*time.Second)
	if _, err := sink.WaitKeyspace("exp", 30*time.Second); err != nil {
		t.Fatal(err)
	}
	code, body = httpGet(t, srv.URL+"/campaigns/tables?keyspace=exp")
	if code != 200 || json.Unmarshal([]byte(body), &lt) != nil || !lt.Complete {
		t.Errorf("tables after completion: %d complete=%v", code, lt.Complete)
	}
	if lt.MTTFCI.N == 0 || lt.Reports == 0 {
		t.Errorf("completed tables lack data: %+v", lt)
	}
	code, body = httpGet(t, srv.URL+"/campaigns/partial?keyspace=exp")
	if code != 200 {
		t.Fatalf("partial after completion: %d %q", code, body)
	}
	var p Partial
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(p.Shard.Testbeds) != "[alpha beta]" {
		t.Errorf("partial testbeds: %v", p.Shard.Testbeds)
	}

	// Drain flips readiness.
	if err := sink.Drain(); err != nil {
		t.Fatal(err)
	}
	if code, _ := httpGet(t, srv.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz after drain: %d, want 503", code)
	}
}

// TestSinkHTTPDistrict checks that districts are first-class on the
// metrics surface: /metricsz and /campaigns list a district next to a
// campaign keyspace, with its kind, counters, piconets folded and
// completion — here a district restored from the checkpoint fixture and
// then released.
func TestSinkHTTPDistrict(t *testing.T) {
	sealed, err := os.ReadFile(districtFixture)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fixture.district.ckpt")
	if err := os.WriteFile(path, sealed, 0o644); err != nil {
		t.Fatal(err)
	}
	dc := fixtureDistrict(path)
	sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0",
		Keyspaces: []KeyspaceConfig{{Key: "fixture", Campaign: dc.Campaign, Spec: tpSpec()}},
		Districts: []DistrictConfig{dc}})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	srv := httptest.NewServer(sink.Handler())
	defer srv.Close()

	district := func(url string, list func([]byte) ([]KeyspaceMetrics, error)) KeyspaceMetrics {
		t.Helper()
		code, body := httpGet(t, url)
		kms, err := list([]byte(body))
		if code != 200 || err != nil || len(kms) != 2 {
			t.Fatalf("%s: %d %q", url, code, body)
		}
		if kms[0].Kind != "campaign" || kms[1].Kind != "district" || kms[1].Key != "fixture" {
			t.Fatalf("%s lists %+v, want the campaign then the district", url, kms)
		}
		return kms[1]
	}
	metricsz := func(b []byte) ([]KeyspaceMetrics, error) {
		var m SinkMetrics
		err := json.Unmarshal(b, &m)
		return m.Keyspaces, err
	}
	campaigns := func(b []byte) ([]KeyspaceMetrics, error) {
		var kms []KeyspaceMetrics
		err := json.Unmarshal(b, &kms)
		return kms, err
	}
	for _, km := range []KeyspaceMetrics{
		district(srv.URL+"/metricsz", metricsz), district(srv.URL+"/campaigns", campaigns),
	} {
		if km.Piconets != 2 || km.FoldedPiconets != 2 || km.Complete || km.CheckpointFailures != 0 {
			t.Errorf("restored district metrics: %+v", km)
		}
	}

	agent, err := NewScatterAgent(ScatterAgentConfig{Addr: sink.Addr(), Keyspace: dc.Key,
		Campaign: dc.Campaign, Net: dc.Net, Lo: dc.Lo, Hi: dc.Hi,
		RunPiconet: func(int) (*analysis.PiconetPartial, error) { return nil, fmt.Errorf("no re-run") },
		RunOverlay: func() (*analysis.OverlayPartial, error) { return nil, fmt.Errorf("no re-run") },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := sink.WaitDistrict(dc.Key, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	km := district(srv.URL+"/metricsz", metricsz)
	if !km.Complete || km.AppliedBatches != 0 || km.DuplicateBatches != 0 || km.RejectedBatches != 0 {
		t.Errorf("released district metrics: %+v", km)
	}
}
