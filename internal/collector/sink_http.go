package collector

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/analysis"
	"repro/internal/stats"
)

// The sink's observability surface: a plain net/http handler serving
// liveness/readiness probes, the transport/ingest/durability counters as
// metrics JSON, and — the part the paper's methodology actually wants —
// the live Table 2/3/4 view of any hosted campaign MID-run, computed from a
// consistent snapshot of the keyspace's streaming aggregates. Keyspaces are
// addressed with the ?keyspace= query parameter (absent = the default
// keyspace), so the empty default key needs no path encoding.
//
// Routes:
//
//	GET  /healthz             liveness (200 while the process serves)
//	GET  /readyz              readiness (503 once draining or closed)
//	GET  /metricsz            SinkMetrics JSON
//	GET  /campaigns           KeyspaceMetrics JSON array
//	GET  /campaigns/tables    LiveTables JSON   (?keyspace=KEY)
//	GET  /campaigns/partial   Partial JSON      (?keyspace=KEY; 409 until complete)
//	POST /campaigns           register a keyspace (needs SinkConfig.SpecResolver)

// LiveTables is one keyspace's mid-campaign (or final) analysis view: the
// rendered Table 2/3 and the Table 4 column with its within-run 95 %
// confidence intervals, plus the dataset counters that qualify it.
type LiveTables struct {
	Keyspace string     `json:"keyspace"`
	Campaign CampaignID `json:"campaign"`
	Complete bool       `json:"complete"`

	Reports        int `json:"reports"`
	Entries        int `json:"entries"`
	SeqGaps        int `json:"seq_gaps"`
	DroppedRecords int `json:"dropped_records"`

	Table2 string                  `json:"table2"`
	Table3 string                  `json:"table3"`
	Table4 *analysis.Dependability `json:"table4"`

	// Taxonomy / Survival / Interarrival are the failure-taxonomy plane
	// rendered from the same snapshot: the per-phase transience split, the
	// Kaplan-Meier node-uptime curve (censored at the campaign horizon) and
	// the failure-interarrival histogram. Mid-run they reflect the data
	// applied so far, exactly like Table 2/3.
	Taxonomy     string `json:"taxonomy"`
	Survival     string `json:"survival"`
	Interarrival string `json:"interarrival"`

	// MTTFCI / MTTRCI are the Student-t 95 % confidence intervals over the
	// campaign's observed inter-failure gaps / repair times so far.
	MTTFCI stats.Estimate `json:"mttf_ci95"`
	MTTRCI stats.Estimate `json:"mttr_ci95"`
}

// RegisterRequest is the POST /campaigns body: a keyspace declaration whose
// stream spec the sink derives through its SpecResolver.
type RegisterRequest struct {
	Key          string     `json:"key"`
	Campaign     CampaignID `json:"campaign"`
	Testbeds     []string   `json:"testbeds,omitempty"`
	ScenarioName string     `json:"scenario_name,omitempty"`

	CheckpointPath string `json:"checkpoint_path,omitempty"`
	QuotaBytes     int64  `json:"quota_bytes,omitempty"`
	QuotaBatches   int    `json:"quota_batches,omitempty"`
}

// LiveTables computes one keyspace's current analysis view from a
// consistent aggregate snapshot (the finalized aggregates once complete, a
// live fold-consistent snapshot before that).
func (s *Sink) LiveTables(key string) (*LiveTables, error) {
	s.mu.Lock()
	t := s.tenants[nsKey{key: key}]
	if t == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("collector: tables for unknown keyspace %q", key)
	}
	complete := t.complete
	scenario := t.cfg.ScenarioName
	campaign := t.cfg.Campaign
	var snap *analysis.AggregatesSnapshot
	if complete {
		snap = t.agg.Snapshot()
	}
	str := t.str
	s.mu.Unlock()
	if snap == nil {
		snap = str.AggSnapshot()
	}
	if scenario == "" {
		scenario = fmt.Sprintf("scenario %d", campaign.Scenario)
	}
	agg, err := analysis.RestoreAggregates(snap)
	if err != nil {
		return nil, err
	}
	ttf := stats.RestoreSummary(snap.Depend.TTF)
	ttr := stats.RestoreSummary(snap.Depend.TTR)
	return &LiveTables{
		Keyspace: key, Campaign: campaign, Complete: complete,
		Reports: agg.Reports, Entries: agg.Entries,
		SeqGaps: agg.SeqGaps, DroppedRecords: agg.DroppedRecords,
		Table2:       agg.Table2().Render(),
		Table3:       agg.Table3().Render(),
		Table4:       agg.Dependability(scenario),
		Taxonomy:     agg.Taxonomy().Table(campaign.Duration).Render(),
		Survival:     agg.Survival().Curve(campaign.Duration).Render(),
		Interarrival: agg.Survival().RenderInterarrival(40),
		MTTFCI:       ttf.CI95(),
		MTTRCI:       ttr.CI95(),
	}, nil
}

// Handler returns the sink's HTTP observability handler (mounted by
// cmd/btsink's -http flag; embeddable under any mux).
func (s *Sink) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		ready := !s.draining && !s.closed
		s.mu.Unlock()
		if !ready {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/metricsz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Metrics())
	})
	mux.HandleFunc("/campaigns", func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			s.handleRegister(w, r)
			return
		}
		m := s.Metrics()
		writeJSON(w, m.Keyspaces)
	})
	mux.HandleFunc("/campaigns/tables", func(w http.ResponseWriter, r *http.Request) {
		lt, err := s.LiveTables(r.URL.Query().Get("keyspace"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, lt)
	})
	mux.HandleFunc("/campaigns/partial", func(w http.ResponseWriter, r *http.Request) {
		p, err := s.Partial(r.URL.Query().Get("keyspace"))
		if err != nil {
			// Distinguish "not yet" (retry later) from "no such keyspace".
			s.mu.Lock()
			_, known := s.tenants[nsKey{key: r.URL.Query().Get("keyspace")}]
			s.mu.Unlock()
			code := http.StatusNotFound
			if known {
				code = http.StatusConflict
			}
			http.Error(w, err.Error(), code)
			return
		}
		writeJSON(w, p)
	})
	return mux
}

// handleRegister serves POST /campaigns.
func (s *Sink) handleRegister(w http.ResponseWriter, r *http.Request) {
	if s.cfg.SpecResolver == nil {
		http.Error(w, "this sink has no spec resolver; register campaigns at startup",
			http.StatusNotImplemented)
		return
	}
	var req RegisterRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad register request: %v", err), http.StatusBadRequest)
		return
	}
	spec, err := s.cfg.SpecResolver(req.Campaign, req.Testbeds)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	err = s.Register(KeyspaceConfig{
		Key: req.Key, Campaign: req.Campaign, Spec: spec,
		ScenarioName:   req.ScenarioName,
		CheckpointPath: req.CheckpointPath,
		MaxBytes:       req.QuotaBytes, MaxBatches: req.QuotaBatches,
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.WriteHeader(http.StatusCreated)
	fmt.Fprintf(w, "registered keyspace %q\n", req.Key)
}

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
