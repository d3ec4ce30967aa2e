package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/collector"
)

// TestMain runs btsink's main instead of the tests when a test re-executes
// the test binary as a sink process (BTSINK_MAIN=1), so the tests below
// drive the real command, start-up included.
func TestMain(m *testing.M) {
	if os.Getenv("BTSINK_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// sinkProcess starts btsink with args as a child process; its stderr lines
// arrive on the returned channel, which closes when the process exits.
func sinkProcess(t *testing.T, args ...string) (*exec.Cmd, <-chan string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BTSINK_MAIN=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	return cmd, lines
}

// exitLines collects the sink's stderr lines until it exits, failing the
// test if it is still running after a minute.
func exitLines(t *testing.T, lines <-chan string) []string {
	t.Helper()
	var got []string
	timeout := time.After(time.Minute)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				return got
			}
			got = append(got, line)
		case <-timeout:
			t.Fatalf("btsink still running after a minute; stderr so far: %q", got)
		}
	}
}

// TestSinkCreatesItsDirectories runs a district whose -checkpoint-dir and
// -partial-dir do not exist yet: btsink must create them, so the district
// checkpoints, completes and exports its partial. A sink that does not
// create them fails every checkpoint write and never acknowledges the
// agent, which retries until the deadline.
func TestSinkCreatesItsDirectories(t *testing.T) {
	root := filepath.Join(t.TempDir(), "missing")
	args := []string{"-addr", "127.0.0.1:0",
		"-district", "key=d0,seed=3,days=1,range=0:1,piconets=1,bridges=0",
		"-checkpoint-dir", filepath.Join(root, "ck"), "-partial-dir", filepath.Join(root, "part")}
	conf, err := parseCLI(args)
	if err != nil {
		t.Fatal(err)
	}
	df, dc := conf.districts[0], conf.sink.Districts[0]
	camp, _, err := df.shape.District(df.id, df.rng)
	if err != nil {
		t.Fatal(err)
	}
	_, lines := sinkProcess(t, args...)
	var addr string
	for line := range lines {
		if rest, ok := strings.CutPrefix(line, "btsink: listening on "); ok {
			addr, _, _ = strings.Cut(rest, " ")
			break
		}
	}
	if addr == "" {
		t.Fatal("btsink exited before it listened")
	}

	agent, err := collector.NewScatterAgent(collector.ScatterAgentConfig{
		Addr: addr, Keyspace: dc.Key, Campaign: dc.Campaign, Net: dc.Net, Lo: dc.Lo, Hi: dc.Hi,
		RunPiconet: camp.PiconetPartial, RunOverlay: camp.RunOverlay,
		RetryMin: 20 * time.Millisecond, RetryMax: 200 * time.Millisecond,
		StallTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- agent.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("the district never completed: btsink did not create its directories")
	}
	exitLines(t, lines) // btsink exits once its only district completes
	if _, err := os.Stat(filepath.Join(root, "part", "d0.district.json")); err != nil {
		t.Errorf("no district export: %v", err)
	}
}

// TestSinkDirectoryFlagIsFile pins the start-up failure when a directory
// btsink must create is a regular file: one line naming the flag, exit 1.
func TestSinkDirectoryFlagIsFile(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	district := []string{"-district", "key=d0,seed=3,range=0:1,piconets=1,bridges=0"}
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-checkpoint-dir", append([]string{"-checkpoint-dir", file}, district...)},
		{"-partial-dir", append([]string{"-partial-dir", file}, district...)},
		{"-report-dir", append([]string{"-report-dir", file}, district...)},
		{"-checkpoint", []string{"-checkpoint", filepath.Join(file, "sink.ckpt")}},
	} {
		cmd, lines := sinkProcess(t, append([]string{"-addr", "127.0.0.1:0"}, tc.args...)...)
		got := exitLines(t, lines)
		err := cmd.Wait()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Errorf("%s on a file: exit %v, want status 1", tc.flag, err)
		}
		want := "btsink: " + tc.flag + ": mkdir " + file + ": not a directory"
		if len(got) != 1 || got[0] != want {
			t.Errorf("%s on a file: stderr %q, want the one line %q", tc.flag, got, want)
		}
	}
}
