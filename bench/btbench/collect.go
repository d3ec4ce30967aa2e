package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	btpan "repro"
	"repro/internal/analysis"
	"repro/internal/collector"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// The collect workload. Setup simulates a campaign for the seed, recording
// every drain, and renders the reference report; it runs several times and
// setup_s is the median. The timed phase then runs rounds on one long-lived
// collector.Sink. Each round registers a fresh keyspace with a checkpoint
// file, replays the recorded drains through two collector.Agents (one per
// testbed, spill log on, binary codec), calls Finish, waits for the
// keyspace and byte-compares its report with the reference. Meanwhile an
// open-loop reader GETs the current keyspace's live tables through the
// sink's HTTP handler at readerRate, in process, timing each request from
// the instant it was due. Why: the simulator does no work while timed, so
// the codec, the agents' spill logs, sink ingest and checkpoints and the
// fold carry the load; and the reader contends for the sink mutex that
// ingest and checkpoints take, so an ingest gain that stalls readers shows.

// readerRate is the open-loop reader's request rate (requests per second).
const readerRate = 20

// collectTimeout bounds each Finish and WaitKeyspace of a round.
const collectTimeout = 60 * time.Second

// collectSetup is the timed phase's input: the recorded corpus and
// everything an agent ships with it, plus the reference report.
type collectSetup struct {
	cfg       btpan.CampaignConfig
	corpus    *corpus
	reference []byte
	nodes     map[string][]string
	counters  map[string]map[string]*workload.CountersSnapshot
	durations map[string]sim.Time
}

// buildCollectSetup simulates the campaign on the single-process streaming
// plane and records its drains.
func buildCollectSetup(cfg btpan.CampaignConfig, tr *tracer) (*collectSetup, error) {
	camp, err := testbed.NewCampaign(cfg.Seed, cfg.Scenario, nil)
	if err != nil {
		return nil, err
	}
	str, err := analysis.NewStreamer(camp.StreamSpec())
	if err != nil {
		return nil, err
	}
	ing := newSpanIngestor(str, tr, -1, -1, true)
	out, err := streamCampaign(cfg, camp, str, ing, tr, -1, -1)
	if err != nil {
		return nil, err
	}
	s := &collectSetup{
		cfg:       cfg,
		corpus:    newCorpus(camp.StreamSpec(), ing.drains),
		reference: out.report,
		nodes:     make(map[string][]string),
		counters:  make(map[string]map[string]*workload.CountersSnapshot),
		durations: make(map[string]sim.Time),
	}
	for _, res := range []*testbed.Results{out.random, out.realistic} {
		snaps := make(map[string]*workload.CountersSnapshot, len(res.Counters))
		for node, c := range res.Counters {
			snaps[node] = c.Snapshot()
		}
		s.counters[res.Name] = snaps
		s.durations[res.Name] = res.Duration
	}
	for _, spec := range camp.StreamSpec().Testbeds {
		s.nodes[spec.Name] = append(append([]string(nil), spec.PANUs...), spec.NAP)
	}
	return s, nil
}

// collectRun is the timed phase's state.
type collectRun struct {
	e       *env
	r       *result
	setup   *collectSetup
	id      collector.CampaignID
	sink    *collector.Sink
	current atomic.Pointer[readTarget]
	rd      *tablesReader
	stop    chan struct{}
	wg      sync.WaitGroup

	frames                      []float64 // frames the sink received, per round
	retransmits, dups, rejected int
}

// readTarget is the keyspace the reader reads and the sink hosting it.
type readTarget struct {
	sink    *collector.Sink
	handler http.Handler
	key     string
}

// sinkRounds is how many keyspaces one sink hosts before it is replaced. A
// sink keeps every completed keyspace's state (about 1 MB each) for as long
// as it lives, so without a bound peak RSS would grow with the number of
// rounds a run manages, and a faster commit would read as a memory
// regression.
const sinkRounds = 24

// collectConfig is the campaign the collect corpus is simulated from.
func collectConfig(e *env) btpan.CampaignConfig {
	cfg := campaignConfig(e)
	cfg.Duration = sim.Time(e.size.collectDays) * sim.Day
	return cfg
}

func runCollect(e *env) (*result, error) {
	cfg := collectConfig(e)
	r := newResult(e)
	var setups []float64
	var setup *collectSetup
	for i := 0; i < e.size.collectSetups; i++ {
		t := time.Now()
		s, err := buildCollectSetup(cfg, e.tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		r.attempted++
		if setup != nil && !bytes.Equal(s.reference, setup.reference) {
			r.fail("setup %d reference report differs from setup 0", i)
		}
		setup = s
	}
	r.report = setup.reference
	e.checkPinned(r, setup.reference)

	c := &collectRun{e: e, r: r, setup: setup, stop: make(chan struct{}),
		id: collector.CampaignID{Seed: cfg.Seed, Duration: cfg.Duration, Scenario: int(cfg.Scenario)}}
	loop := &unitLoop{e: e}
	err := loop.run(c.round)
	close(c.stop)
	c.wg.Wait()
	if c.sink != nil {
		c.sink.Close()
	}
	if err != nil {
		return nil, err
	}

	if err := loop.endToEnd(r, setups, float64(setup.corpus.records), float64(e.size.collectDays)); err != nil {
		return nil, err
	}
	rd := c.rd
	r.attempted += rd.reads
	r.failOps(rd.nonOK, "%d of %d live-table reads failed", rd.nonOK, rd.reads)
	p50, p95 := quantile(rd.latencies, 0.5)*1e3, quantile(rd.latencies, 0.95)*1e3
	if !e.traced {
		r.addDetail("tables.p50_ms", p50, "ms")
		r.addDetail("tables.p95_ms", p95, "ms")
		return r, nil
	}

	if err := loop.layerMetrics(r, float64(setup.corpus.records)); err != nil {
		return nil, err
	}
	r.metrics["tables.p50_ms"] = p50
	r.metrics["tables.p95_ms"] = p95
	r.metrics["agent.retransmits"] = float64(c.retransmits)
	r.metrics["sink.frames"] = median(c.frames)
	r.metrics["sink.duplicates"] = float64(c.dups)
	r.metrics["sink.rejected"] = float64(c.rejected)
	r.metrics["sink.pending_max"] = float64(rd.pendingMax)
	r.metrics["tables.reads"] = float64(rd.reads)
	if err := setup.corpus.foldCost(r); err != nil {
		return nil, err
	}
	bytesPerRecord, encNs, decNs, err := setup.corpus.codecCost()
	if err != nil {
		return nil, err
	}
	r.metrics["codec.bytes_per_record"] = bytesPerRecord
	r.addDetail("codec.encode_ns_per_batch", encNs, "ns/batch")
	r.addDetail("codec.decode_ns_per_batch", decNs, "ns/batch")
	ingest := e.tr.durations("agent.ingest")
	r.addDetail("agent.ingest_us_p50", quantile(ingest, 0.5)*1e6, "us")
	r.addDetail("agent.ingest_us_p99", quantile(ingest, 0.99)*1e6, "us")
	r.addDetail("agent.finish_ms", median(e.tr.durations("agent.finish"))*1e3, "ms")
	r.addDetail("sink.wait_ms", median(e.tr.durations("sink.wait"))*1e3, "ms")
	r.addDetail("tables.service_ms_p50", quantile(rd.services, 0.5)*1e3, "ms")
	r.addDetail("tables.wait_ms_p50", quantile(rd.waits, 0.5)*1e3, "ms")
	r.addDetail("tables.late_ms_max", quantile(rd.waits, 1)*1e3, "ms")
	return r, nil
}

// round is one collection unit: a fresh keyspace fed by two agents.
func (c *collectRun) round(k int, traced bool) (float64, error) {
	tr := c.e.tr
	ks := fmt.Sprintf("r%d", k)
	dir := filepath.Join(c.e.scratch, ks)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	var retired *collector.Sink
	if k%sinkRounds == 0 {
		sink, err := collector.NewSink(collector.SinkConfig{Addr: "127.0.0.1:0", AllowEmpty: true})
		if err != nil {
			return 0, err
		}
		retired, c.sink = c.sink, sink
	}
	if err := c.sink.Register(collector.KeyspaceConfig{Key: ks, Campaign: c.id,
		Spec: testbed.CampaignStreamSpec(), ScenarioName: c.setup.cfg.Scenario.String(),
		CheckpointPath: filepath.Join(dir, "sink.ckpt")}); err != nil {
		return 0, err
	}
	c.current.Store(&readTarget{sink: c.sink, handler: c.sink.Handler(), key: ks})
	if retired != nil {
		// A read still in flight on the retired sink answers from memory.
		retired.Close()
	}
	if c.rd == nil {
		c.rd = &tablesReader{target: &c.current, tr: tr}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.rd.run(c.stop, time.Now())
		}()
	}

	roundID := tr.begin("collect.round", -1, k)
	t0 := time.Now()
	names := []string{"random", "realistic"}
	sent := make([]int, len(names))
	retrans := make([]int, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for j, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sent[j], retrans[j], errs[j] = c.ship(name, ks, dir, roundID, k)
		}()
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("round %d agent %s: %w", k, names[j], err)
		}
	}
	waitID := tr.begin("sink.wait", roundID, k)
	rep, err := c.sink.WaitKeyspace(ks, collectTimeout)
	tr.end(waitID)
	if err != nil {
		return 0, err
	}
	res, err := btpan.ResultFromAggregates(c.setup.cfg, rep.Agg, rep.Counters, rep.Durations)
	if err != nil {
		return 0, err
	}
	renderID := tr.begin("report.render", roundID, k)
	var buf bytes.Buffer
	btpan.WriteReport(&buf, res)
	tr.end(renderID)
	wall := time.Since(t0).Seconds()
	tr.end(roundID)

	c.r.attempted++
	checkAggregates(c.r, fmt.Sprintf("round %d", k), rep.Agg)
	if !bytes.Equal(buf.Bytes(), c.setup.reference) {
		c.r.fail("round %d report differs from the single-process reference (digest %s vs %s)",
			k, digest(buf.Bytes()), digest(c.setup.reference))
	}
	for _, km := range c.sink.Metrics().Keyspaces {
		if km.Key != ks {
			continue
		}
		c.frames = append(c.frames, float64(km.IngestBatches))
		c.dups += km.DuplicateBatches
		c.rejected += km.RejectedBatches
		c.r.failOps(km.DuplicateBatches+km.RejectedBatches, "round %d: sink saw %d duplicate and %d rejected frames",
			k, km.DuplicateBatches, km.RejectedBatches)
	}
	for j := range names {
		c.r.attempted += sent[j]
		c.retransmits += retrans[j]
		c.r.failOps(retrans[j], "round %d agent %s retransmitted %d frames", k, names[j], retrans[j])
	}
	return wall, nil
}

// ship replays one testbed's recorded drains through a fresh agent and
// finishes it, returning the agent's sent and retransmitted frame counts.
func (c *collectRun) ship(name, ks, dir string, parent, round int) (sent, retransmits int, err error) {
	tr := c.e.tr
	agent, err := collector.NewAgent(collector.AgentConfig{Addr: c.sink.Addr(), Campaign: c.id,
		Keyspace: ks, Testbed: name, Nodes: c.setup.nodes[name], SpillDir: dir})
	if err != nil {
		return 0, 0, err
	}
	defer agent.Close()
	for _, d := range c.setup.corpus.drains[name] {
		id := tr.begin("agent.ingest", parent, round)
		err := agent.Ingest(d.testbed, d.node, d.reports, d.entries, d.watermark)
		tr.end(id)
		if err != nil {
			return 0, 0, err
		}
	}
	id := tr.begin("agent.finish", parent, round)
	err = agent.Finish(c.setup.counters[name], c.setup.durations[name], collectTimeout)
	tr.end(id)
	if err != nil {
		return 0, 0, err
	}
	sent, retransmits = agent.Stats()
	return sent, retransmits, nil
}

// tablesReader is the open-loop live-tables reader. Every field but the
// inputs is written by run alone and read after it returns.
type tablesReader struct {
	target *atomic.Pointer[readTarget]
	tr     *tracer

	reads, nonOK, pendingMax   int
	latencies, waits, services []float64 // seconds
}

// run issues one request per 1/readerRate from start until stop closes; the
// first is issued at once, so every run has a sample. Each is timed from its
// due instant, so a stalled request also delays the ones queued behind it;
// waits is how late the generator issued each one.
func (rd *tablesReader) run(stop <-chan struct{}, start time.Time) {
	period := time.Second / readerRate
	timer := time.NewTimer(period)
	defer timer.Stop()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if i > 0 {
			timer.Reset(max(time.Until(due), 0))
			select {
			case <-stop:
				return
			case <-timer.C:
			}
		}
		target := rd.target.Load()
		begin := time.Now()
		id := rd.tr.begin("tables.get", -1, -1)
		req := httptest.NewRequest(http.MethodGet,
			"/campaigns/tables?keyspace="+url.QueryEscape(target.key), nil)
		w := httptest.NewRecorder()
		target.handler.ServeHTTP(w, req)
		rd.tr.end(id)
		done := time.Now()
		rd.reads++
		if w.Code != http.StatusOK {
			rd.nonOK++
		}
		rd.latencies = append(rd.latencies, done.Sub(due).Seconds())
		rd.waits = append(rd.waits, begin.Sub(due).Seconds())
		rd.services = append(rd.services, done.Sub(begin).Seconds())
		if id >= 0 {
			rd.pendingMax = max(rd.pendingMax, target.sink.Metrics().PendingRecords)
		}
	}
}

// codecCost encodes every recorded drain as a binary batch frame and decodes
// it back, returning wire bytes per record and the median per-batch encode
// and decode times over a few passes.
func (c *corpus) codecCost() (bytesPerRecord, encodeNs, decodeNs float64, err error) {
	var batches []*collector.Batch
	for _, ds := range c.drains {
		for i, d := range ds {
			batches = append(batches, &collector.Batch{Node: d.node, Testbed: d.testbed,
				Reports: d.reports, Entries: d.entries, Watermark: d.watermark, Seq: uint64(i + 1)})
		}
	}
	var enc, dec []float64
	var wire bytes.Buffer
	for pass := 0; pass < 5; pass++ {
		wire.Reset()
		t := time.Now()
		for _, b := range batches {
			if err := collector.WriteBatch(&wire, b); err != nil {
				return 0, 0, 0, err
			}
		}
		enc = append(enc, float64(time.Since(t).Nanoseconds())/float64(len(batches)))
		size := wire.Len()
		t = time.Now()
		rd := bytes.NewReader(wire.Bytes())
		for {
			if _, err := collector.ReadBatch(rd); err == io.EOF {
				break
			} else if err != nil {
				return 0, 0, 0, err
			}
		}
		dec = append(dec, float64(time.Since(t).Nanoseconds())/float64(len(batches)))
		bytesPerRecord = ratio(float64(size), float64(c.records))
	}
	return bytesPerRecord, median(enc), median(dec), nil
}
