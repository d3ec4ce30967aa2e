#!/bin/sh
# bench.sh runs the end-to-end campaign benchmarks and emits
# BENCH_campaign.json so the performance trajectory is tracked across PRs:
# the day-scale throughput metric (ns/op, B/op, allocs/op — comparable back
# to PR 1), the month-scale streaming benchmark with its live-heap metric
# (O(1) in campaign days) and the retained 30-day control, plus the
# scatternet day benchmark (4 piconets, 3 bridges, streaming — PR 3), the
# wall-clock seconds of the end-to-end multi-process collection smoke
# (sink + 2 agents over loopback, clean + kill/resume passes — PR 5), and
# the agent-side WAL overhead ratio (streaming day shipped through a real
# agent/sink pair with and without the spill log — PR 6; budget: < 0.15),
# and the scatternet scaling ladder (64/256/1024-piconet virtual days on the
# sharded roll-up engine — PR 8; live_mb must stay flat across the ladder),
# and the taxonomy overhead ratio (streaming day with the taxonomy/survival
# accumulators on vs forced off — PR 10; budget: < 0.05).
# The "layers" block holds per-layer ledger rows: baseband_sdu is ns/op and
# allocs/op of the batched SDU path on a fixed five-fragment shape and on
# the random workload's shape mix; transfer_run is ns/op, ns/packet and
# allocs/op of a 60-packet Pipe.SendRun through the run-length transfer
# kernel; probe_walk is ns/walk and allocs/op of one relay probe (calendar
# pop and re-arm, walk, record) on the 64-piconet ring; kernel_schedule is
# one schedule + deliver round trip through the event kernel's heap; and
# overlay_day is the 64-piconet ring's bridge overlay alone for one virtual
# day with exhaustive probes, in s/day and wall ns per probe.
# Usage: scripts/bench.sh [day-benchtime] [month-benchtime] [scale-benchtime]
set -eu

cd "$(dirname "$0")/.."
day_benchtime="${1:-5x}"
month_benchtime="${2:-1x}"
scale_benchtime="${3:-1x}"

# Warm the build cache first so the smoke's internal go-build steps are
# cache hits and the timed value measures the collection plane, not the
# compiler (a cold CI runner would otherwise dominate the metric).
go build ./... >/dev/null
smoke_start="$(date +%s)"
./scripts/smoke_distributed.sh >/dev/null
smoke_secs="$(($(date +%s) - smoke_start))"
# The metro smoke is the distributed scatternet pass (two district shards,
# fault injection, agent + sink kill -9, byte-identical merge — PR 9).
metro_start="$(date +%s)"
# The script has hung now and then (ROADMAP); bound it as CI does so a hang
# fails the run instead of stalling it.
timeout 300 ./scripts/chaos_metro.sh >/dev/null
metro_secs="$(($(date +%s) - metro_start))"

day_out="$(go test -run '^$' -bench '^BenchmarkCampaignDay(Taxonomy|NoTaxonomy)?$' -benchtime "$day_benchtime" -benchmem . | tee /dev/stderr)"
month_out="$(go test -run '^$' -bench '^Benchmark(CampaignMonth(Retained)?|ScatternetDay)$' -benchtime "$month_benchtime" -benchmem . | tee /dev/stderr)"
# The scaling ladder runs at 1x by default: the city rung is a whole
# 1024-piconet virtual day per iteration.
scale_out="$(go test -run '^$' -bench '^BenchmarkScatternetDay(64|256|1024)$' -benchtime "$scale_benchtime" -benchmem -timeout 60m . | tee /dev/stderr)"
# The agent pair is cheap per op; a fixed high count keeps the overhead
# ratio stable against scheduler noise.
agent_out="$(go test -run '^$' -bench '^BenchmarkAgentStreamDay' -benchtime 100x -benchmem ./internal/collector | tee /dev/stderr)"
layer_out="$(go test -run '^$' -bench '^BenchmarkTransmitterSendSDU(Mix)?$' -benchmem ./internal/baseband | tee /dev/stderr)"
run_out="$(go test -run '^$' -bench '^BenchmarkPipeSendRun$' -benchmem ./internal/stack | tee /dev/stderr)"
probe_out="$(go test -run '^$' -bench '^Benchmark(ProbeWalk|OverlayDay)$' -benchmem ./internal/scatternet | tee /dev/stderr)"
kernel_out="$(go test -run '^$' -bench '^BenchmarkKernelSchedule$' -benchmem ./internal/sim | tee /dev/stderr)"

printf '%s\n%s\n%s\n%s\n%s\n%s\n%s\n%s\n' "$day_out" "$month_out" "$scale_out" "$agent_out" "$layer_out" "$run_out" "$probe_out" "$kernel_out" | awk -v smoke="$smoke_secs" -v metro="$metro_secs" '
# Benchmark lines interleave custom metrics with the standard ones, so pick
# values by their unit token instead of field position.
/^Benchmark(Campaign|Scatternet|Agent|Transmitter|Pipe|ProbeWalk|OverlayDay|KernelSchedule)/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = bytes = allocs = live = items = outages = probes = per_packet = per_walk = per_day = per_probe = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i-1)
        if ($i == "B/op") bytes = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
        if ($i == "live-MB") live = $(i-1)
        if ($i == "items") items = $(i-1)
        if ($i == "corr-outages") outages = $(i-1)
        if ($i == "probes") probes = $(i-1)
        if ($i == "ns/packet") per_packet = $(i-1)
        if ($i == "ns/walk") per_walk = $(i-1)
        if ($i == "s/day") per_day = $(i-1)
        if ($i == "ns/probe") per_probe = $(i-1)
    }
    if (name == "BenchmarkCampaignDay") { d_ns = ns; d_b = bytes; d_a = allocs; d_live = live }
    if (name == "BenchmarkCampaignDayTaxonomy") { tax_ns = ns }
    if (name == "BenchmarkCampaignDayNoTaxonomy") { notax_ns = ns }
    if (name == "BenchmarkCampaignMonth") { m_ns = ns; m_b = bytes; m_a = allocs; m_live = live; m_items = items }
    if (name == "BenchmarkCampaignMonthRetained") { r_live = live }
    if (name == "BenchmarkScatternetDay") { s_ns = ns; s_b = bytes; s_a = allocs; s_live = live; s_items = items; s_out = outages }
    if (name == "BenchmarkAgentStreamDay") { ag_ns = ns }
    if (name == "BenchmarkAgentStreamDaySpill") { ags_ns = ns }
    if (name == "BenchmarkScatternetDay64") { sc64_ns = ns; sc64_live = live; sc64_items = items; sc64_probes = probes }
    if (name == "BenchmarkScatternetDay256") { sc256_ns = ns; sc256_live = live; sc256_items = items; sc256_probes = probes }
    if (name == "BenchmarkScatternetDay1024") { sc1024_ns = ns; sc1024_live = live; sc1024_items = items; sc1024_probes = probes }
    if (name == "BenchmarkTransmitterSendSDU") { sdu_ns = ns; sdu_a = allocs }
    if (name == "BenchmarkTransmitterSendSDUMix") { mix_ns = ns; mix_a = allocs }
    if (name == "BenchmarkPipeSendRun") { run_ns = ns; run_pp = per_packet; run_a = allocs }
    if (name == "BenchmarkProbeWalk") { walk_ns = ns; walk_pw = per_walk; walk_a = allocs }
    if (name == "BenchmarkKernelSchedule") { kern_ns = ns; kern_a = allocs }
    if (name == "BenchmarkOverlayDay") { ov_day = per_day; ov_pp = per_probe; ov_a = allocs }
}
END {
    if (d_ns == "" || d_b == "" || d_a == "" || d_live == "" ||
        m_ns == "" || m_b == "" || m_a == "" || m_live == "" ||
        m_items == "" || r_live == "" ||
        s_ns == "" || s_b == "" || s_a == "" || s_live == "" || s_items == "" || s_out == "" ||
        sc64_ns == "" || sc64_live == "" || sc64_items == "" || sc64_probes == "" ||
        sc256_ns == "" || sc256_live == "" || sc256_items == "" || sc256_probes == "" ||
        sc1024_ns == "" || sc1024_live == "" || sc1024_items == "" || sc1024_probes == "" ||
        tax_ns == "" || notax_ns == "" ||
        ag_ns == "" || ags_ns == "" ||
        sdu_ns == "" || sdu_a == "" || mix_ns == "" || mix_a == "" ||
        run_ns == "" || run_pp == "" || run_a == "" ||
        walk_ns == "" || walk_pw == "" || walk_a == "" || kern_ns == "" || kern_a == "" ||
        ov_day == "" || ov_pp == "" || ov_a == "") {
        print "bench.sh: missing benchmark lines or metrics" > "/dev/stderr"
        exit 1
    }
    printf "{\n"
    printf "  \"benchmark\": \"BenchmarkCampaignDay\",\n"
    printf "  \"ns_per_op\": %s,\n", d_ns
    printf "  \"bytes_per_op\": %s,\n", d_b
    printf "  \"allocs_per_op\": %s,\n", d_a
    printf "  \"live_mb\": %s,\n", d_live
    printf "  \"month\": {\n"
    printf "    \"benchmark\": \"BenchmarkCampaignMonth\",\n"
    printf "    \"ns_per_op\": %s,\n", m_ns
    printf "    \"bytes_per_op\": %s,\n", m_b
    printf "    \"allocs_per_op\": %s,\n", m_a
    printf "    \"live_mb\": %s,\n", m_live
    printf "    \"items\": %s,\n", m_items
    printf "    \"retained_live_mb\": %s\n", r_live
    printf "  },\n"
    printf "  \"scatternet\": {\n"
    printf "    \"benchmark\": \"BenchmarkScatternetDay\",\n"
    printf "    \"piconets\": 4,\n"
    printf "    \"bridges\": 3,\n"
    printf "    \"ns_per_op\": %s,\n", s_ns
    printf "    \"bytes_per_op\": %s,\n", s_b
    printf "    \"allocs_per_op\": %s,\n", s_a
    printf "    \"live_mb\": %s,\n", s_live
    printf "    \"items\": %s,\n", s_items
    printf "    \"correlated_outages\": %s\n", s_out
    printf "  },\n"
    printf "  \"scatternet_scaling\": [\n"
    printf "    {\"piconets\": 64, \"ns_per_op\": %s, \"live_mb\": %s, \"items\": %s, \"probes\": %s},\n", sc64_ns, sc64_live, sc64_items, sc64_probes
    printf "    {\"piconets\": 256, \"ns_per_op\": %s, \"live_mb\": %s, \"items\": %s, \"probes\": %s},\n", sc256_ns, sc256_live, sc256_items, sc256_probes
    printf "    {\"piconets\": 1024, \"ns_per_op\": %s, \"live_mb\": %s, \"items\": %s, \"probes\": %s}\n", sc1024_ns, sc1024_live, sc1024_items, sc1024_probes
    printf "  ],\n"
    printf "  \"campaign_day_taxonomy_ns\": %s,\n", tax_ns
    printf "  \"campaign_day_no_taxonomy_ns\": %s,\n", notax_ns
    printf "  \"taxonomy_overhead_ratio\": %.4f,\n", (tax_ns - notax_ns) / notax_ns
    printf "  \"agent_stream_day_ns\": %s,\n", ag_ns
    printf "  \"agent_stream_day_spill_ns\": %s,\n", ags_ns
    printf "  \"agent_wal_overhead_ratio\": %.4f,\n", (ags_ns - ag_ns) / ag_ns
    printf "  \"distributed_smoke_seconds\": %s,\n", smoke
    printf "  \"metro_smoke_seconds\": %s,\n", metro
    printf "  \"layers\": {\n"
    printf "    \"baseband_sdu\": [\n"
    printf "      {\"benchmark\": \"BenchmarkTransmitterSendSDU\", \"ns_per_op\": %s, \"allocs_per_op\": %s},\n", sdu_ns, sdu_a
    printf "      {\"benchmark\": \"BenchmarkTransmitterSendSDUMix\", \"ns_per_op\": %s, \"allocs_per_op\": %s}\n", mix_ns, mix_a
    printf "    ],\n"
    printf "    \"transfer_run\": [\n"
    printf "      {\"benchmark\": \"BenchmarkPipeSendRun\", \"ns_per_op\": %s, \"ns_per_packet\": %s, \"allocs_per_op\": %s}\n", run_ns, run_pp, run_a
    printf "    ],\n"
    printf "    \"probe_walk\": [\n"
    printf "      {\"benchmark\": \"BenchmarkProbeWalk\", \"ns_per_op\": %s, \"ns_per_walk\": %s, \"allocs_per_op\": %s}\n", walk_ns, walk_pw, walk_a
    printf "    ],\n"
    printf "    \"kernel_schedule\": [\n"
    printf "      {\"benchmark\": \"BenchmarkKernelSchedule\", \"ns_per_op\": %s, \"allocs_per_op\": %s}\n", kern_ns, kern_a
    printf "    ],\n"
    printf "    \"overlay_day\": [\n"
    printf "      {\"benchmark\": \"BenchmarkOverlayDay\", \"s_per_day\": %s, \"ns_per_probe\": %s, \"allocs_per_op\": %s}\n", ov_day, ov_pp, ov_a
    printf "    ]\n"
    printf "  }\n"
    printf "}\n"
}' >BENCH_campaign.json

cat BENCH_campaign.json
