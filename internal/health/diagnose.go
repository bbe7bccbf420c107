package health

import (
	"fmt"
	"io"
	"math"
	"sort"

	"mimoctl/internal/flightrec"
	"mimoctl/internal/obs"
)

// Cause is a ranked root-cause hypothesis for a misbehaving loop.
type Cause string

const (
	CauseHealthy             Cause = "healthy"
	CauseSensorFault         Cause = "sensor-fault"
	CauseActuatorFault       Cause = "actuator-fault"
	CauseModelDrift          Cause = "model-drift"
	CauseInfeasibleReference Cause = "infeasible-reference"
)

// Verdict is one hypothesis with its confidence and the evidence that
// produced it.
type Verdict struct {
	Cause    Cause   `json:"cause"`
	Score    float64 `json:"score"`
	Evidence string  `json:"evidence"`
}

// Diagnosis is the ranked output of Diagnose.
type Diagnosis struct {
	// Verdicts are sorted by descending score; Verdicts[0] is the call.
	Verdicts []Verdict `json:"verdicts"`
	// Records is the number of flight records examined.
	Records int `json:"records"`
}

// Top returns the highest-scoring verdict.
func (d *Diagnosis) Top() Verdict {
	if d == nil || len(d.Verdicts) == 0 {
		return Verdict{Cause: CauseHealthy}
	}
	return d.Verdicts[0]
}

// freezeRunLen is the number of bit-identical consecutive measurements
// that counts as a frozen sensor. The simulated sensors carry
// multiplicative Gaussian noise (1% IPS, 2.5% power), so even two
// identical consecutive float64 readings are vanishingly unlikely on a
// live channel.
const freezeRunLen = 8

// Diagnose examines a flight recording and ranks the root-cause
// hypotheses. It needs nothing but the dump: every detector works off
// the recorded per-epoch evidence (flags, measured vs. true outputs,
// innovation, requested vs. effective configuration, knob pinning).
func Diagnose(meta flightrec.Meta, recs []obs.Event) *Diagnosis {
	d := &Diagnosis{Records: len(recs)}
	if len(recs) == 0 {
		d.Verdicts = []Verdict{{Cause: CauseHealthy, Score: 0, Evidence: "empty recording"}}
		return d
	}
	n := float64(len(recs))

	// --- Sensor evidence: sanitization flags, non-finite readings,
	// frozen channels, and measured-vs-true divergence beyond noise.
	sanitized, nonFinite, deviant, extreme := 0, 0, 0, 0
	for _, r := range recs {
		if r.Flags&(obs.FlagSanitizedIPS|obs.FlagSanitizedPower) != 0 {
			sanitized++
		}
		badIPS := math.IsNaN(r.IPS) || math.IsInf(r.IPS, 0)
		badPow := math.IsNaN(r.PowerW) || math.IsInf(r.PowerW, 0)
		if badIPS || badPow {
			nonFinite++
			continue
		}
		// 1% / 2.5% relative noise: a 15% relative gap is > 5σ on both
		// channels — measurement and plant disagree.
		dev := math.Max(relDev(r.IPS, r.TrueIPS), relDev(r.PowerW, r.TruePowerW))
		if dev > 0.15 {
			deviant++
		}
		if dev > 1.0 {
			extreme++ // a >2× reading is a spike, not noise or drift
		}
	}
	frozen := maxInt(freezeCount(recs, func(r obs.Event) float64 { return r.IPS }),
		freezeCount(recs, func(r obs.Event) float64 { return r.PowerW }))
	sensorFrac := math.Max(math.Max(float64(sanitized)/n, float64(nonFinite)/n),
		math.Max(float64(frozen)/n, float64(deviant)/n))
	// A sustained fault occupies a contiguous window of the ring (the
	// sweep's is an eighth of the run), so the sustained evidence is
	// weighted to saturate there; sparse extreme spikes are individually
	// damning and weighted far harder.
	sensorScore := clamp01(math.Max(6*sensorFrac, 60*float64(extreme)/n))
	sensorEv := fmt.Sprintf("sanitized %.1f%%, non-finite %.1f%%, frozen %.1f%%, meas/true divergence %.1f%% (spikes %.1f%%) of epochs",
		100*float64(sanitized)/n, 100*float64(nonFinite)/n, 100*float64(frozen)/n, 100*float64(deviant)/n, 100*float64(extreme)/n)

	// --- Actuator evidence: the configuration requested at epoch k
	// should be in effect at epoch k+1; persistent divergence on epochs
	// where a change was requested is the stuck-actuator signature.
	// Explicit apply-failure flags (supervised runs) count directly.
	attempted, missed, applyErrs := 0, 0, 0
	for k := 0; k+1 < len(recs); k++ {
		r, nx := recs[k], recs[k+1]
		if nx.Epoch != r.Epoch+1 {
			continue // ring gap
		}
		if r.Flags&obs.FlagApplyError != 0 {
			applyErrs++
		}
		mismatch := reqCfgMismatch(r, nx)
		requested := r.ReqFreq != r.CfgFreq || r.ReqCache != r.CfgCache ||
			(r.ReqROB != obs.IdxNA && r.ReqROB != r.CfgROB)
		if requested || mismatch {
			attempted++
			if mismatch {
				missed++
			}
		}
	}
	missFrac := 0.0
	if attempted >= 5 {
		missFrac = float64(missed) / float64(attempted)
	}
	applyFrac := float64(applyErrs) / n
	actuatorScore := clamp01(math.Max(2*missFrac, 6*applyFrac))
	actuatorEv := fmt.Sprintf("%d/%d requested changes not applied, apply errors %.1f%% of epochs",
		missed, attempted, 100*applyFrac)

	// --- Infeasible-reference evidence: knobs pinned at a range limit
	// while the true outputs sit far from target. Both must co-occur; a
	// transient saturation during a step response pins briefly but
	// converges, an unreachable target pins forever and never closes
	// the error.
	pinned, offTarget, both := 0, 0, 0
	for _, r := range recs {
		p := pinnedAtLimit(r, meta)
		o := trackingFar(r)
		if p {
			pinned++
		}
		if o {
			offTarget++
		}
		if p && o {
			both++
		}
	}
	infeasFrac := float64(both) / n
	infeasibleScore := clamp01(1.5*infeasFrac) * (1 - sensorScore) * (1 - actuatorScore)
	infeasibleEv := fmt.Sprintf("knob pinned %.1f%%, off-target %.1f%%, both %.1f%% of epochs",
		100*float64(pinned)/n, 100*float64(offTarget)/n, 100*infeasFrac)

	// --- Model-drift evidence: the innovation magnitude grows over the
	// recording while sensors agree with the plant and actuators obey.
	// The Ljung–Box p only corroborates growth: a quantized-actuation
	// closed loop's innovation is never white even when healthy (the
	// quantizer injects correlated disturbance), so absolute
	// non-whiteness on its own proves nothing here — the online monitor
	// tracks it against a relative baseline instead. Sensor and actuator
	// faults inflate the innovation too, so this score is damped by
	// theirs: drift is the residual hypothesis.
	growth, lbp := innovationTrend(recs)
	growthScore := clamp01((growth - 2) / 6)
	pScore := 0.0
	if growth > 3 && lbp < 1e-4 {
		pScore = clamp01(math.Log10(1e-4/lbp) / 6)
	}
	driftScore := clamp01(math.Max(growthScore, pScore)) *
		(1 - sensorScore) * (1 - actuatorScore) * (1 - infeasibleScore)
	driftEv := fmt.Sprintf("innovation growth ×%.1f, Ljung-Box p=%.2g", growth, lbp)

	worst := math.Max(math.Max(sensorScore, actuatorScore), math.Max(driftScore, infeasibleScore))
	healthyScore := clamp01(1 - worst)
	healthyEv := fmt.Sprintf("no detector above %.2f", worst)

	d.Verdicts = []Verdict{
		{CauseSensorFault, sensorScore, sensorEv},
		{CauseActuatorFault, actuatorScore, actuatorEv},
		{CauseModelDrift, driftScore, driftEv},
		{CauseInfeasibleReference, infeasibleScore, infeasibleEv},
		{CauseHealthy, healthyScore, healthyEv},
	}
	sort.SliceStable(d.Verdicts, func(i, j int) bool { return d.Verdicts[i].Score > d.Verdicts[j].Score })
	return d
}

// relDev is |a−b| relative to |b| (0 when b is ~zero and a is too).
func relDev(a, b float64) float64 {
	if math.Abs(b) < 1e-9 {
		if math.Abs(a) < 1e-9 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(a-b) / math.Abs(b)
}

// freezeCount counts epochs belonging to runs of at least freezeRunLen
// bit-identical consecutive readings. Bit equality (not ==) so frozen
// NaN channels count as frozen too.
func freezeCount(recs []obs.Event, get func(obs.Event) float64) int {
	total, run := 0, 1
	flush := func() {
		if run >= freezeRunLen {
			total += run
		}
		run = 1
	}
	for k := 1; k < len(recs); k++ {
		if math.Float64bits(get(recs[k])) == math.Float64bits(get(recs[k-1])) {
			run++
			continue
		}
		flush()
	}
	flush()
	return total
}

// reqCfgMismatch reports whether the configuration in effect at the
// next epoch differs from what this epoch requested, on the channels
// the controller actually drives.
func reqCfgMismatch(r, next obs.Event) bool {
	if r.Flags&(obs.FlagFallback|obs.FlagHold) != 0 {
		// Fallback pins and holds re-issue by design; only engaged
		// requests witness the actuator.
		return false
	}
	if r.ReqFreq != next.CfgFreq || r.ReqCache != next.CfgCache {
		return true
	}
	return r.ReqROB != obs.IdxNA && r.ReqROB != next.CfgROB
}

// pinnedAtLimit reports whether the loop asks for more of a driven
// knob whose request sits at the end of its legal range. A record shows
// the ask when it carries the loop's continuous request for the knob
// (a MIMO step's u) or requests a move of it: a configuration re-issued
// with no continuous request behind it — a static controller's, a
// fallback pin — pushes at no limit, wherever it sits. Level counts
// come from the dump's meta; the defaults match the simulator's tables
// (16 frequency steps, 4 cache configurations, 8 ROB sizes).
func pinnedAtLimit(r obs.Event, meta flightrec.Meta) bool {
	fl, cl, rl := meta.FreqLevels, meta.CacheLevels, meta.ROBLevels
	if fl <= 0 {
		fl = 16
	}
	if cl <= 0 {
		cl = 4
	}
	if rl <= 0 {
		rl = 8
	}
	atLimit := func(req, cfg int16, u float64, levels int) bool {
		asks := !math.IsNaN(u) || req != cfg
		return asks && (req == 0 || int(req) == levels-1)
	}
	return atLimit(r.ReqFreq, r.CfgFreq, r.UFreqGHz, fl) ||
		atLimit(r.ReqCache, r.CfgCache, r.UL2Ways, cl) ||
		(r.ReqROB != obs.IdxNA && atLimit(r.ReqROB, r.CfgROB, r.UROBEntries, rl))
}

// trackingFar reports whether the true outputs miss the references by
// more than 20% — far beyond what the certified loop leaves in steady
// state.
func trackingFar(r obs.Event) bool {
	if r.IPSTarget > 0 && relDev(r.TrueIPS, r.IPSTarget) > 0.2 {
		return true
	}
	return r.PowerTarget > 0 && relDev(r.TruePowerW, r.PowerTarget) > 0.2
}

// innovationTrend returns (growth, p): growth is the ratio of the
// largest to the smallest octile mean |innovation| (normalized by the
// targets), p the worst-channel Ljung–Box p-value over the recording.
func innovationTrend(recs []obs.Event) (growth, p float64) {
	growth, p = 1, 1
	for ch := 0; ch < 2; ch++ {
		xs := make([]float64, 0, len(recs))
		for _, r := range recs {
			v, scale := r.InnovIPS, r.IPSTarget
			if ch == 1 {
				v, scale = r.InnovPowerW, r.PowerTarget
			}
			if scale <= 0 {
				scale = 1
			}
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v/scale)
			}
		}
		if len(xs) < 64 {
			continue
		}
		if v := ljungBoxP(xs, 8); v < p {
			p = v
		}
		oct := len(xs) / 8
		lo, hi := math.Inf(1), 0.0
		for o := 0; o < 8; o++ {
			sum := 0.0
			for _, v := range xs[o*oct : (o+1)*oct] {
				sum += math.Abs(v)
			}
			m := sum / float64(oct)
			if m < lo {
				lo = m
			}
			if m > hi {
				hi = m
			}
		}
		if lo < 1e-12 {
			lo = 1e-12
		}
		if g := hi / lo; g > growth {
			growth = g
		}
	}
	return growth, p
}

func clamp01(v float64) float64 {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// WriteReport renders cmd/mimodoctor's human-readable diagnosis.
func WriteReport(w io.Writer, meta flightrec.Meta, d *Diagnosis) {
	fmt.Fprintf(w, "flight recording: arch=%s workload=%s fault=%s seed=%d epochs=%d (%d records examined)\n",
		orUnknown(meta.Arch), orUnknown(meta.Workload), orUnknown(meta.FaultClass), meta.Seed, meta.Epochs, d.Records)
	if meta.TargetIPS > 0 || meta.TargetPowerW > 0 {
		fmt.Fprintf(w, "targets: %.3g BIPS, %.3g W\n", meta.TargetIPS, meta.TargetPowerW)
	}
	if meta.Reason != "" {
		fmt.Fprintf(w, "dump trigger: %s\n", meta.Reason)
	}
	fmt.Fprintf(w, "\ndiagnosis (ranked):\n")
	for i, v := range d.Verdicts {
		marker := "  "
		if i == 0 {
			marker = "->"
		}
		fmt.Fprintf(w, "%s %-22s %5.2f  %s\n", marker, v.Cause, v.Score, v.Evidence)
	}
}

func orUnknown(s string) string {
	if s == "" {
		return "?"
	}
	return s
}
