package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/testbed"
)

// TestParseCLIValidation pins the command line: the default keyspace the
// shorthand flags declare, and the range checks every campaign identity
// goes through — -scenario and a -campaign scenario= field alike.
func TestParseCLIValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"defaults", nil, ""},
		{"default checkpoint", []string{"-checkpoint", "sink.ckpt"}, ""},
		{"scenario high", []string{"-scenario", "9"}, "-scenario 9 out of range 1..4"},
		{"days low", []string{"-days", "0"}, "-days 0 out of range 1..540"},
		{"default checkpoint dir", []string{"-checkpoint-dir", "ckpt"}, "-checkpoint-dir needs -campaign, -district or -serve"},
		{"default partial dir", []string{"-partial-dir", "parts"}, "-partial-dir needs -campaign, -district or -serve"},
		{"default report dir", []string{"-report-dir", "reports"}, "-report-dir needs -campaign, -district or -serve"},
		{"campaign", []string{"-campaign", "key=a,seed=1"}, ""},
		{"campaign scenario high", []string{"-campaign", "key=a,seed=1,scenario=9"}, "scenario 9 out of range 1..4"},
		{"campaign scenario low", []string{"-campaign", "key=a,seed=1,scenario=0"}, "scenario 0 out of range 1..4"},
		{"campaign days high", []string{"-campaign", "key=a,seed=1,days=999"}, "days 999 out of range 1..540"},
		{"campaign without key", []string{"-campaign", "seed=1"}, "key= and seed= are required"},
		{"campaign unknown field", []string{"-campaign", "key=a,seed=1,color=red"}, `unknown field "color"`},
		{"campaign negative byte quota", []string{"-campaign", "key=a,seed=1,quota-bytes=-1"}, "quota-bytes -1 is negative"},
		{"campaign negative batch quota", []string{"-campaign", "key=a,seed=1,quota-batches=-5"}, "quota-batches -5 is negative"},
		{"campaign zero quotas", []string{"-campaign", "key=a,seed=1,quota-bytes=0,quota-batches=0"}, ""},
		{"district", []string{"-district", "key=d,seed=1,range=0:2"}, ""},
		{"district scenario high", []string{"-district", "key=d,seed=1,range=0:2,scenario=5"}, "scenario 5 out of range 1..4"},
		{"district empty range", []string{"-district", "key=d,seed=1,range=2:2"}, "empty or negative"},
		{"district probe-sample", []string{"-district", "key=d,seed=1,range=0:2,probe-sample=0.5"}, ""},
		{"district probe-sample zero", []string{"-district", "key=d,seed=1,range=0:2,probe-sample=0"}, "-probe-sample 0 outside (0, 1]"},
		{"district probe-sample negative", []string{"-district", "key=d,seed=1,range=0:2,probe-sample=-0.5"}, "-probe-sample -0.5 outside (0, 1]"},
		{"district probe-sample above one", []string{"-district", "key=d,seed=1,range=0:2,probe-sample=1.5"}, "-probe-sample 1.5 outside (0, 1]"},
		{"district probe-sample NaN", []string{"-district", "key=d,seed=1,range=0:2,probe-sample=NaN"}, "-probe-sample is NaN"},
		{"serve without http", []string{"-serve"}, "-serve needs -http"},
		{"checkpoint-every zero", []string{"-checkpoint-every", "0"}, "-checkpoint-every 0 must be at least 1"},
		{"checkpoint-every negative", []string{"-checkpoint-every", "-3"}, "-checkpoint-every -3 must be at least 1"},
		{"memory-budget negative", []string{"-memory-budget", "-1"}, "-memory-budget -1 is negative"},
		{"timeout negative", []string{"-timeout", "-1s"}, "-timeout -1s is negative"},

		// The default keyspace's flags with a SPEC-declared keyspace, and
		// shape values the engine would read as unset.
		{"campaign with seed", []string{"-campaign", "key=a,seed=1", "-seed", "5"},
			"-seed configures the default keyspace only"},
		{"campaign with days", []string{"-campaign", "key=a,seed=1", "-days", "9"},
			"-days configures the default keyspace only"},
		{"campaign with scenario", []string{"-campaign", "key=a,seed=1", "-scenario", "2"},
			"-scenario configures the default keyspace only"},
		{"district with checkpoint", []string{"-district", "key=d,seed=1,range=0:2", "-checkpoint", "f"},
			"-checkpoint configures the default keyspace only"},
		{"serve with days", []string{"-serve", "-http", "127.0.0.1:0", "-days", "9"},
			"-days configures the default keyspace only"},
		{"district hold zero", []string{"-district", "key=d,seed=1,range=0:2,hold=0"}, "-hold 0 must be at least 1"},
		{"district redundancy zero", []string{"-district", "key=d,seed=1,range=0:2,redundancy=0"},
			"-redundancy 0 must be at least 1"},
		{"district without range", []string{"-district", "key=d,seed=1"}, "key=, seed= and range= are required"},
		{"district range outside", []string{"-district", "key=d,seed=1,range=0:9"},
			"piconet range 0:9 outside the campaign's [0:2)"},

		// Every btsink command line of README.md, OPERATIONS.md and
		// scripts/*.sh, script variables at their defaults.
		{"readme", []string{"-seed", "1", "-days", "4", "-checkpoint", "sink.ckpt"}, ""},
		{"operations default", []string{"-addr", "127.0.0.1:9310", "-seed", "1", "-days", "4",
			"-checkpoint", "/tmp/bt/sink.ckpt"}, ""},
		{"operations multi-tenant", []string{"-addr", "127.0.0.1:9310",
			"-campaign", "key=prod,seed=7,days=30",
			"-campaign", "key=replay,seed=7,days=30,scenario=2",
			"-campaign", "key=guest,seed=3,days=4,quota-bytes=50000000",
			"-checkpoint-dir", "/tmp/bt/ckpt", "-report-dir", "/tmp/bt/reports",
			"-http", "127.0.0.1:9380"}, ""},
		{"operations sharded", []string{"-addr", "127.0.0.1:9311",
			"-campaign", "key=prod,seed=7,days=30,testbeds=random",
			"-checkpoint-dir", "/tmp/bt/ck0", "-partial-dir", "/tmp/bt/part0"}, ""},
		{"operations district", []string{"-addr", "127.0.0.1:9322",
			"-district", "key=metro1,seed=5,days=7,range=2:4,piconets=4,topology=ring",
			"-checkpoint-dir", "/tmp/bt/ck1", "-partial-dir", "/tmp/bt/part1"}, ""},
		{"chaos_distributed", []string{"-addr", "127.0.0.1:1", "-seed", "1", "-days", "2",
			"-checkpoint", "sink.ckpt", "-checkpoint-every", "8", "-timeout", "10m"}, ""},
		{"chaos_metro", []string{"-addr", "127.0.0.1:1",
			"-district", "key=metro0,seed=5,days=7,range=0:2,piconets=4,topology=ring,probe-sample=0.5",
			"-checkpoint-dir", "ckpt0", "-partial-dir", "part0", "-timeout", "10m"}, ""},
		{"chaos_multitenant", []string{"-addr", "127.0.0.1:1",
			"-campaign", "key=alpha,seed=7,days=2,testbeds=random",
			"-campaign", "key=bravo,seed=11,days=2,testbeds=random",
			"-campaign", "key=hog,seed=13,days=2,testbeds=random,quota-batches=12",
			"-checkpoint-dir", "ckpt0", "-checkpoint-every", "8",
			"-partial-dir", "part0", "-timeout", "10m"}, ""},
		{"smoke clean", []string{"-addr", "127.0.0.1:1", "-seed", "1", "-days", "1", "-timeout", "10m"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cli, err := parseCLI(tc.args)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("parseCLI(%q) = %v, want an error containing %q", tc.args, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseCLI(%q): %v", tc.args, err)
			}
			defaultMode := !slices.ContainsFunc(tc.args, func(a string) bool {
				return a == "-campaign" || a == "-district" || a == "-serve"
			})
			if cli.stdout != defaultMode {
				t.Errorf("stdout report = %v, want %v", cli.stdout, defaultMode)
			}
			if defaultMode {
				ks := cli.sink.Keyspaces
				if len(ks) != 1 || ks[0].Key != "" || ks[0].Campaign.Scenario != 3 {
					t.Fatalf("default keyspace: %+v", ks)
				}
				want := ""
				if i := slices.Index(tc.args, "-checkpoint"); i >= 0 {
					want = tc.args[i+1]
				}
				if ks[0].CheckpointPath != want {
					t.Errorf("default keyspace checkpoints at %q, want %q", ks[0].CheckpointPath, want)
				}
			}
		})
	}
}

// writeFrame writes one wire frame: length prefix, kind byte, payload
// (PROTOCOL.md §1).
func writeFrame(t *testing.T, conn net.Conn, kind byte, payload []byte) {
	t.Helper()
	frame := binary.BigEndian.AppendUint32(nil, uint32(1+len(payload)))
	frame = append(append(frame, kind), payload...)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
}

// writeControl writes one JSON control frame.
func writeControl(t *testing.T, conn net.Conn, kind byte, v any) {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	writeFrame(t, conn, kind, blob)
}

// TestDataLossFailsBeforeReport drives the default keyspace into a
// completed campaign with a sequence gap — one stream ships batches 1 and 3
// and declares 1 final — and requires the watcher to fail on the loss
// without printing a report.
func TestDataLossFailsBeforeReport(t *testing.T) {
	cli, err := parseCLI([]string{"-addr", "127.0.0.1:0", "-days", "1"})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	cli.out = &out
	sink, err := collector.NewSink(cli.sink)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	campaign := cli.sink.Keyspaces[0].Campaign

	for i, tb := range testbed.CampaignStreamSpec().Testbeds {
		conn, err := net.Dial("tcp", sink.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		nodes := tb.Nodes()
		writeControl(t, conn, 2, collector.Hello{Session: collector.SessionVersion, Campaign: campaign,
			Testbed: tb.Name, Nodes: nodes})
		if fr, err := collector.ReadFrame(conn); err != nil || fr.Kind != collector.KindAck {
			t.Fatalf("handshake: %v %+v", err, fr)
		}
		done := collector.Done{Testbed: tb.Name, Duration: campaign.Duration}
		for _, node := range nodes {
			done.Final = append(done.Final, collector.StreamCursor{Node: node})
		}
		if i == 0 {
			for _, seq := range []uint64{1, 3} {
				var buf bytes.Buffer
				if err := collector.WriteBatch(&buf, &collector.Batch{Testbed: tb.Name, Node: nodes[0],
					Seq: seq, Watermark: 1}); err != nil {
					t.Fatal(err)
				}
				if _, err := conn.Write(buf.Bytes()); err != nil {
					t.Fatal(err)
				}
			}
			done.Final[0].Seq = 1
		}
		writeControl(t, conn, 5, &done)
		for {
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			fr, err := collector.ReadFrame(conn)
			if err != nil {
				t.Fatalf("testbed %s never released: %v", tb.Name, err)
			}
			if fr.Kind == collector.KindFin {
				break
			}
		}
	}
	err = watchKeyspace(sink, cli.campaigns[0], cli)
	if err == nil || !strings.Contains(err.Error(), "data loss: 1 sequence gaps") {
		t.Fatalf("watchKeyspace = %v, want the data-loss error", err)
	}
	if out.Len() != 0 {
		t.Errorf("a report (%d bytes) was printed before the data-loss verdict", out.Len())
	}
}
