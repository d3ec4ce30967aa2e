package recovery

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/transport"
)

func testRNG(a uint64) *rand.Rand { return rand.New(rand.NewPCG(a, a+1)) }

func testHost(t *testing.T) *stack.Host {
	t.Helper()
	world := sim.NewWorld(77)
	var connID uint64
	cfg := stack.DefaultHostConfig(5)
	return stack.NewHost(cfg, world, "Verde",
		stack.OSInfo{Family: "Linux", Distribution: "Mandrake",
			BootTime: 110 * sim.Second, AppRestartTime: 9 * sim.Second},
		5, false, false,
		transport.NewH4(transport.H4Config{BaudRate: 115200}), &connID, nil)
}

func TestDepthWeightsRowsSumTo100(t *testing.T) {
	covered := 0
	for _, f := range core.UserFailures() {
		w, ok := depthWeights[f]
		if !ok {
			if f != core.UFDataMismatch {
				t.Errorf("%v has no effectiveness row", f)
			}
			continue
		}
		covered++
		sum := 0.0
		for _, x := range w {
			if x < 0 {
				t.Errorf("%v has negative weight", f)
			}
			sum += x
		}
		if math.Abs(sum-100) > 0.5 {
			t.Errorf("%v row sums to %v, want 100", f, sum)
		}
	}
	if covered != len(core.UserFailures())-1 {
		t.Errorf("%d rows, want %d (all but data mismatch)", covered, len(core.UserFailures())-1)
	}
}

func TestDepthWeightsPaperAnchors(t *testing.T) {
	// The three cells the paper states explicitly.
	w := depthWeights[core.UFNAPNotFound]
	if w[core.RABTStackReset-1] != 61.4 {
		t.Errorf("NAP-not-found stack reset = %v, want 61.4", w[core.RABTStackReset-1])
	}
	w = depthWeights[core.UFPacketLoss]
	if w[core.RAIPSocketReset-1] != 5.9 {
		t.Errorf("packet-loss socket reset = %v, want 5.9", w[core.RAIPSocketReset-1])
	}
	w = depthWeights[core.UFConnectFailed]
	expensive := w[core.RAAppRestart-1] + w[core.RAMultiAppRestart-1] +
		w[core.RASystemReboot-1] + w[core.RAMultiSystemReboot-1]
	if math.Abs(expensive-84.6) > 0.5 {
		t.Errorf("connect-failed expensive share = %v, want 84.6", expensive)
	}
}

func TestSampleDepthDistribution(t *testing.T) {
	r := testRNG(1)
	counts := make([]int, core.NumRecoveryActions+1)
	const n = 100000
	for i := 0; i < n; i++ {
		d, ok := SampleDepth(core.UFPacketLoss, r)
		if !ok {
			t.Fatal("packet loss must have a depth model")
		}
		counts[int(d)]++
	}
	gotSock := float64(counts[int(core.RAIPSocketReset)]) / n * 100
	if math.Abs(gotSock-5.9) > 0.6 {
		t.Errorf("sampled socket-reset share = %v, want ~5.9", gotSock)
	}
	gotConn := float64(counts[int(core.RABTConnectionReset)]) / n * 100
	if math.Abs(gotConn-63.7) > 1.5 {
		t.Errorf("sampled conn-reset share = %v, want ~63.7", gotConn)
	}
}

func TestSampleDepthDataMismatch(t *testing.T) {
	if _, ok := SampleDepth(core.UFDataMismatch, testRNG(2)); ok {
		t.Error("data mismatch must have no recovery")
	}
}

func TestTimingDurationsOrdered(t *testing.T) {
	tm := NewTiming(stack.OSInfo{BootTime: 100 * sim.Second, AppRestartTime: 10 * sim.Second}, testRNG(3))
	var prev sim.Time
	for _, a := range core.RecoveryActions() {
		var mean sim.Time
		for i := 0; i < 200; i++ {
			mean += tm.Duration(a)
		}
		mean /= 200
		if mean <= prev {
			t.Errorf("%v mean duration %v not above previous %v (costs must increase)", a, mean, prev)
		}
		prev = mean
	}
}

func TestUserRebootCostsMoreThanSIRAReboot(t *testing.T) {
	tm := NewTiming(stack.OSInfo{BootTime: 100 * sim.Second, AppRestartTime: 10 * sim.Second}, testRNG(4))
	var user, sira sim.Time
	for i := 0; i < 200; i++ {
		user += tm.UserRebootDuration()
		sira += tm.Duration(core.RASystemReboot)
	}
	if user <= sira {
		t.Errorf("manual reboot (%v) should cost more than the automated one (%v)", user/200, sira/200)
	}
}

func TestCascadeStopsAtDepth(t *testing.T) {
	c := NewCascade(testHost(t), testRNG(5))
	for depth := core.RAIPSocketReset; depth <= core.RAMultiSystemReboot; depth++ {
		out := c.RunWithDepth(ScenarioSIRAs, depth)
		if !out.Recovered {
			t.Fatalf("depth %v not recovered", depth)
		}
		if out.Action != depth {
			t.Errorf("depth %v cleared by %v", depth, out.Action)
		}
		if out.Attempts != int(depth) {
			t.Errorf("depth %v took %d attempts", depth, out.Attempts)
		}
	}
}

func TestCascadeTTRAccumulates(t *testing.T) {
	c := NewCascade(testHost(t), testRNG(6))
	shallow := c.RunWithDepth(ScenarioSIRAs, core.RAIPSocketReset)
	deep := c.RunWithDepth(ScenarioSIRAs, core.RASystemReboot)
	if deep.TTR <= shallow.TTR {
		t.Errorf("deep TTR %v should exceed shallow %v", deep.TTR, shallow.TTR)
	}
}

func TestScenarioRebootOnly(t *testing.T) {
	c := NewCascade(testHost(t), testRNG(7))
	out := c.RunWithDepth(ScenarioRebootOnly, core.RAIPSocketReset)
	if !out.Recovered || out.Action != core.RASystemReboot || out.Attempts != 1 {
		t.Errorf("reboot-only outcome = %+v", out)
	}
	// Depth 7 forces multiple reboots.
	out = c.RunWithDepth(ScenarioRebootOnly, core.RAMultiSystemReboot)
	if !out.Recovered || out.Action != core.RAMultiSystemReboot || out.Attempts != 2 {
		t.Errorf("reboot-only depth-7 outcome = %+v", out)
	}
}

func TestScenarioAppReboot(t *testing.T) {
	c := NewCascade(testHost(t), testRNG(8))
	out := c.RunWithDepth(ScenarioAppReboot, core.RABTStackReset)
	if !out.Recovered || out.Action != core.RAAppRestart {
		t.Errorf("app-restart should clear depth<=4: %+v", out)
	}
	out = c.RunWithDepth(ScenarioAppReboot, core.RASystemReboot)
	if !out.Recovered || out.Action != core.RASystemReboot || out.Attempts != 2 {
		t.Errorf("depth-6 should need the follow-up reboot: %+v", out)
	}
}

func TestCascadeSideEffects(t *testing.T) {
	host := testHost(t)
	c := NewCascade(host, testRNG(9))
	before := host.Reboots()
	c.RunWithDepth(ScenarioSIRAs, core.RASystemReboot)
	if host.Reboots() != before+1 {
		t.Error("system reboot SIRA should reboot the host")
	}
}

func TestRunDataMismatchNoRecovery(t *testing.T) {
	if depth, ok := SampleDepth(core.UFDataMismatch, testRNG(10)); ok {
		t.Errorf("data mismatch sampled recovery depth %v, want none", depth)
	}
}

func TestScenarioProperties(t *testing.T) {
	if len(Scenarios()) != 4 {
		t.Fatal("4 scenarios expected")
	}
	if !ScenarioSIRAsMasking.Masked() || ScenarioSIRAs.Masked() {
		t.Error("masking flags wrong")
	}
	for _, s := range Scenarios() {
		if s.String() == "" {
			t.Error("empty scenario name")
		}
	}
}

func TestMaskingSets(t *testing.T) {
	all := AllMasking()
	if !all.SDPBeforeConnect || !all.BindWait || !all.RetrySwitchRole || !all.RetryNAPNotFound {
		t.Error("AllMasking should enable everything")
	}
}

func TestRetry(t *testing.T) {
	failures := 2
	err, waited, on := Retry(MaskRetries, MaskRetryWait, func() error {
		if failures > 0 {
			failures--
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("retry should have succeeded: %v", err)
	}
	if on != 3 {
		t.Errorf("succeeded on attempt %d, want 3", on)
	}
	if waited != 2*MaskRetryWait {
		t.Errorf("waited %v, want %v", waited, 2*MaskRetryWait)
	}

	err, waited, on = Retry(1, sim.Second, func() error { return errors.New("permanent") })
	if err == nil || on != 0 {
		t.Error("permanent failure should exhaust retries")
	}
	if waited != sim.Second {
		t.Errorf("waited %v, want 1s", waited)
	}
}
