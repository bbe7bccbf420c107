package health

import (
	"math"
	"strings"
	"testing"

	"mimoctl/internal/flightrec"
	"mimoctl/internal/obs"
)

// synthMeta matches the simulator's knob tables.
func synthMeta() flightrec.Meta {
	return flightrec.Meta{Arch: "mimo", Workload: "namd", Seed: 1, Epochs: 1000,
		TargetIPS: 2.5, TargetPowerW: 2.0, FreqLevels: 16, CacheLevels: 4, ROBLevels: 8}
}

// healthyRecords builds n epochs of a well-behaved loop: outputs near
// target with deterministic wobble (so no channel ever looks frozen),
// small innovations, every request applied the next epoch.
func healthyRecords(n int) []obs.Event {
	recs := make([]obs.Event, n)
	freq := int16(8)
	for k := range recs {
		wobbleI := 0.02 * math.Sin(0.7*float64(k))
		wobbleP := 0.02 * math.Cos(1.3*float64(k))
		nextFreq := int16(8 + k%2) // small dither, always applied
		recs[k] = obs.Event{
			Epoch:     uint64(k),
			IPSTarget: 2.5, PowerTarget: 2.0,
			IPS: 2.5 + wobbleI, PowerW: 2.0 + wobbleP,
			TrueIPS: 2.5 + wobbleI*0.9, TruePowerW: 2.0 + wobbleP*0.9,
			InnovIPS: 0.01 * math.Sin(2.1*float64(k)), InnovPowerW: 0.01 * math.Cos(3.3*float64(k)),
			UFreqGHz: 2.0, UL2Ways: 2.0, UROBEntries: 0,
			ReqFreq: nextFreq, ReqCache: 2, ReqROB: obs.IdxNA,
			CfgFreq: freq, CfgCache: 2, CfgROB: 0,
		}
		freq = nextFreq
	}
	return recs
}

func top(t *testing.T, recs []obs.Event) Verdict {
	t.Helper()
	return Diagnose(synthMeta(), recs).Top()
}

func TestDiagnoseHealthy(t *testing.T) {
	v := top(t, healthyRecords(1000))
	if v.Cause != CauseHealthy {
		t.Fatalf("top = %s (%.2f: %s), want healthy", v.Cause, v.Score, v.Evidence)
	}
}

func TestDiagnoseEmptyRecording(t *testing.T) {
	d := Diagnose(synthMeta(), nil)
	if d.Top().Cause != CauseHealthy || d.Records != 0 {
		t.Fatalf("empty recording: %+v", d.Top())
	}
}

func TestDiagnoseSensorNonFinite(t *testing.T) {
	recs := healthyRecords(1000)
	for k := 250; k < 400; k++ {
		recs[k].IPS = math.NaN()
	}
	v := top(t, recs)
	if v.Cause != CauseSensorFault {
		t.Fatalf("top = %s (%s), want sensor-fault", v.Cause, v.Evidence)
	}
}

func TestDiagnoseSensorFrozen(t *testing.T) {
	recs := healthyRecords(1000)
	for k := 250; k < 400; k++ {
		recs[k].PowerW = 1.9173 // bit-identical across the window
	}
	v := top(t, recs)
	if v.Cause != CauseSensorFault {
		t.Fatalf("top = %s (%s), want sensor-fault", v.Cause, v.Evidence)
	}
}

func TestDiagnoseSensorSpikes(t *testing.T) {
	recs := healthyRecords(1000)
	for k := 0; k < 1000; k += 80 { // 13 massive spikes
		recs[k].IPS = 25.0
	}
	v := top(t, recs)
	if v.Cause != CauseSensorFault {
		t.Fatalf("top = %s (%s), want sensor-fault", v.Cause, v.Evidence)
	}
}

func TestDiagnoseStuckActuator(t *testing.T) {
	recs := healthyRecords(1000)
	// The controller keeps requesting frequency changes; the effective
	// configuration never moves.
	for k := range recs {
		recs[k].ReqFreq = int16(6 + k%4)
		recs[k].CfgFreq = 10
	}
	v := top(t, recs)
	if v.Cause != CauseActuatorFault {
		t.Fatalf("top = %s (%s), want actuator-fault", v.Cause, v.Evidence)
	}
}

func TestDiagnoseApplyErrors(t *testing.T) {
	recs := healthyRecords(1000)
	for k := 250; k < 400; k++ {
		recs[k].Flags |= obs.FlagApplyError
	}
	v := top(t, recs)
	if v.Cause != CauseActuatorFault {
		t.Fatalf("top = %s (%s), want actuator-fault", v.Cause, v.Evidence)
	}
}

func TestDiagnoseInfeasibleReference(t *testing.T) {
	recs := healthyRecords(1000)
	for k := range recs {
		// Pinned at the top of the frequency range, both true outputs far
		// below their references, sensors agreeing with the plant.
		recs[k].ReqFreq, recs[k].CfgFreq = 15, 15
		recs[k].TrueIPS, recs[k].IPS = 1.5, 1.5+0.001*math.Sin(float64(k))
		recs[k].TruePowerW, recs[k].PowerW = 1.2, 1.2+0.001*math.Cos(float64(k))
	}
	v := top(t, recs)
	if v.Cause != CauseInfeasibleReference {
		t.Fatalf("top = %s (%s), want infeasible-reference", v.Cause, v.Evidence)
	}
}

func TestDiagnoseModelDrift(t *testing.T) {
	recs := healthyRecords(1000)
	// Innovation magnitude grows steadily across the recording while
	// sensors and actuators stay clean: the residual hypothesis.
	for k := range recs {
		grow := 1 + 9*float64(k)/1000
		recs[k].InnovIPS *= grow
		recs[k].InnovPowerW *= grow
	}
	v := top(t, recs)
	if v.Cause != CauseModelDrift {
		t.Fatalf("top = %s (%s), want model-drift", v.Cause, v.Evidence)
	}
}

func TestDiagnoseRanksAllFiveCauses(t *testing.T) {
	d := Diagnose(synthMeta(), healthyRecords(100))
	if len(d.Verdicts) != 5 {
		t.Fatalf("got %d verdicts, want 5", len(d.Verdicts))
	}
	for i := 1; i < len(d.Verdicts); i++ {
		if d.Verdicts[i].Score > d.Verdicts[i-1].Score {
			t.Fatalf("verdicts not sorted: %v", d.Verdicts)
		}
	}
}

func TestWriteReport(t *testing.T) {
	var sb strings.Builder
	meta := synthMeta()
	meta.FaultClass, meta.Reason = "sensor-nan", "supervisor-fallback"
	WriteReport(&sb, meta, Diagnose(meta, healthyRecords(100)))
	out := sb.String()
	for _, want := range []string{"arch=mimo", "fault=sensor-nan", "supervisor-fallback", "diagnosis (ranked):", "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
