package btpan

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// sweepCfg is the sweep-checkpoint suite's configuration: short campaigns,
// two seeds, one worker (single-core determinism is not required — results
// are per-seed — but keep the test light).
func sweepCfg(dir string) SweepConfig {
	d := 6 * sim.Hour
	if testing.Short() {
		d = 2 * sim.Hour
	}
	return SweepConfig{BaseSeed: 11, Seeds: 2, Duration: d,
		Scenario: ScenarioSIRAs, Workers: 1, CheckpointDir: dir}
}

// compareSweeps asserts the CI tables of two sweeps are bit-identical.
func compareSweeps(t *testing.T, label string, a, b *SweepResult) {
	t.Helper()
	if !reflect.DeepEqual(a.Table2CI(), b.Table2CI()) {
		t.Errorf("%s: Table 2 CI diverges", label)
	}
	if !reflect.DeepEqual(a.Table3CI(), b.Table3CI()) {
		t.Errorf("%s: Table 3 CI diverges", label)
	}
	if !reflect.DeepEqual(a.DependabilityCI(), b.DependabilityCI()) {
		t.Errorf("%s: dependability CI diverges", label)
	}
	if !reflect.DeepEqual(a.ScalarsCI(), b.ScalarsCI()) {
		t.Errorf("%s: scalars CI diverges", label)
	}
}

// TestSweepCheckpointResume: a sweep writes per-seed checkpoints; a re-run
// (fresh process state, same directory) restores every seed and reproduces
// the CI tables digit for digit; deleting one file re-runs only that seed
// to the same digits.
func TestSweepCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	cfg := sweepCfg(dir)
	first, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Seeds; i++ {
		path := filepath.Join(dir, "seed-"+itoa(cfg.BaseSeed+uint64(i))+".json")
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("missing sweep checkpoint %s: %v", path, err)
		}
	}

	restored, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareSweeps(t, "restored sweep", first, restored)

	// Partial resume: drop one seed's file; only that seed is recomputed.
	if err := os.Remove(filepath.Join(dir, "seed-"+itoa(cfg.BaseSeed)+".json")); err != nil {
		t.Fatal(err)
	}
	partial, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareSweeps(t, "partial resume", first, partial)
}

// TestSweepCheckpointGuards: foreign checkpoints and invalid configurations
// fail loudly instead of contaminating a sweep.
func TestSweepCheckpointGuards(t *testing.T) {
	dir := t.TempDir()
	cfg := sweepCfg(dir)
	if _, err := Sweep(cfg); err != nil {
		t.Fatal(err)
	}

	// Same directory, different duration: the guard must refuse.
	other := cfg
	other.Duration = cfg.Duration + sim.Hour
	if _, err := Sweep(other); err == nil {
		t.Error("sweep accepted checkpoints from a different duration")
	}

	// Corrupt file: loud error.
	path := filepath.Join(dir, "seed-"+itoa(cfg.BaseSeed)+".json")
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Sweep(cfg); err == nil {
		t.Error("sweep accepted a corrupt checkpoint")
	}

	// Checkpointing a scatternet sweep is a config error.
	scat := cfg
	scat.Piconets = 2
	if err := scat.Validate(); err == nil {
		t.Error("scatternet sweep with checkpoint dir validated")
	}
}

// itoa renders a uint64 without strconv noise at call sites.
func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
