package core_test

import (
	"math"
	"strings"
	"testing"

	"mimoctl/internal/core"
	"mimoctl/internal/experiments"
	"mimoctl/internal/mat"
	"mimoctl/internal/sysid"
)

// designCase is one spec the experiment harness designs.
type designCase struct {
	name string
	spec core.DesignSpec
}

// harnessDesignCases returns the specs the experiments design at one
// seed: both knob sets (with validation, as DesignedMIMO designs them),
// model dimensions 2 and 8, the Δu and integral ablations, Fig. 6's
// four weight sets evaluated as given, and Fig. 8's two designs.
func harnessDesignCases() []designCase {
	training := experiments.TrainingWorkloads()
	spec := func(mutate func(*core.DesignSpec)) core.DesignSpec {
		s := core.DesignSpec{Training: training, Seed: 7}
		mutate(&s)
		return s
	}
	cases := []designCase{
		{"two-input", spec(func(s *core.DesignSpec) { s.Validation = experiments.ValidationWorkloads() })},
		{"three-input", spec(func(s *core.DesignSpec) {
			s.ThreeInput = true
			s.Validation = experiments.ValidationWorkloads()
		})},
		{"dim=2", spec(func(s *core.DesignSpec) { s.ModelDimension = 2 })},
		{"dim=4", spec(func(s *core.DesignSpec) { s.ModelDimension = 4 })},
		{"dim=8", spec(func(s *core.DesignSpec) { s.ModelDimension = 8 })},
		{"no-deltaU", spec(func(s *core.DesignSpec) { s.DisableDeltaU = true })},
		{"no-integral", spec(func(s *core.DesignSpec) { s.DisableIntegral = true })},
		{"fig8/high", spec(func(s *core.DesignSpec) {
			s.FreqWeight = core.DefaultFreqWeight * 4
			s.CacheWeight = core.DefaultCacheWeight * 4
		})},
		{"fig8/low", spec(func(s *core.DesignSpec) { s.IPSGuardband, s.PowerGuardband = 0.30, 0.20 })},
	}
	for _, set := range experiments.Fig6WeightSets() {
		set := set
		cases = append(cases, designCase{"fig6/" + set.Label, spec(func(s *core.DesignSpec) {
			s.IPSWeight, s.PowerWeight = set.IPS, set.Power
			s.FreqWeight, s.CacheWeight = set.Freq, set.Cache
			s.MaxRSAIterations = 1
		})})
	}
	return cases
}

// identKey groups specs that share one identification.
type identKey struct {
	three bool
	dim   int
}

func keyOf(s core.DesignSpec) identKey {
	if s.ModelDimension == 0 {
		return identKey{s.ThreeInput, core.DefaultModelDimension}
	}
	return identKey{s.ThreeInput, s.ModelDimension}
}

// TestDesignFromMatchesDesignMIMO: designing every harness spec from
// one identification per (knob set, model dimension), shared by all of
// that key's designs in turn, reproduces DesignMIMO's from-scratch
// controller and report to the bit, and leaves the shared model as
// IdentifyMIMO built it.
func TestDesignFromMatchesDesignMIMO(t *testing.T) {
	shared := map[identKey]*core.Identification{}
	for _, c := range harnessDesignCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			id := shared[keyOf(c.spec)]
			if id == nil {
				var err error
				if id, err = core.IdentifyMIMO(c.spec); err != nil {
					t.Fatal(err)
				}
				shared[keyOf(c.spec)] = id
			}
			wantCtrl, wantRep, wantErr := core.DesignMIMO(c.spec)
			gotCtrl, gotRep, gotErr := core.DesignFrom(c.spec, id)
			if errString(gotErr) != errString(wantErr) {
				t.Fatalf("DesignFrom error %q, DesignMIMO error %q", errString(gotErr), errString(wantErr))
			}
			if gotRep.Model != id.Model {
				t.Error("the report does not carry the shared model")
			}
			compareReports(t, gotRep, wantRep)
			if (gotCtrl == nil) != (wantCtrl == nil) {
				t.Fatalf("controller %v, want %v", gotCtrl, wantCtrl)
			}
			if gotCtrl != nil {
				compareControllers(t, gotCtrl, wantCtrl)
			}
		})
	}
	for key, id := range shared {
		fresh, err := core.IdentifyMIMO(core.DesignSpec{
			ThreeInput: key.three, ModelDimension: key.dim,
			Training: experiments.TrainingWorkloads(), Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		sameWords(t, "shared model after its designs", modelWords(id.Model), modelWords(fresh.Model))
		sameWords(t, "shared training fit", id.TrainingFit, fresh.TrainingFit)
	}
}

// TestDesignFromRejectsMismatchedIdentification: an identification of
// the other knob set or another model dimension is refused, as is none.
func TestDesignFromRejectsMismatchedIdentification(t *testing.T) {
	training := experiments.TrainingWorkloads()
	identify := func(three bool, dim int) *core.Identification {
		t.Helper()
		id, err := core.IdentifyMIMO(core.DesignSpec{
			ThreeInput: three, ModelDimension: dim, Training: training, EpochsPerApp: 300, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	two, three := identify(false, 4), identify(true, 4)
	for _, c := range []struct {
		name string
		spec core.DesignSpec
		id   *core.Identification
		want string
	}{
		{"three-input spec, two-input model", core.DesignSpec{ThreeInput: true}, two, "inputs"},
		{"two-input spec, three-input model", core.DesignSpec{}, three, "inputs"},
		{"dimension 2 spec, dimension 4 model", core.DesignSpec{ModelDimension: 2}, two, "ARX orders"},
		{"dimension 8 spec, dimension 4 model", core.DesignSpec{ModelDimension: 8}, two, "ARX orders"},
		{"default spec, dimension 2 model", core.DesignSpec{}, identify(false, 2), "ARX orders"},
		{"no identification", core.DesignSpec{}, nil, "identification"},
	} {
		ctrl, _, err := core.DesignFrom(c.spec, c.id)
		if err == nil || ctrl != nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: controller %v, error %v; want an error naming %q", c.name, ctrl, err, c.want)
		}
	}
	if _, _, err := core.DesignFrom(core.DesignSpec{}, two); err != nil {
		t.Errorf("the matching spec was refused: %v", err)
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// compareReports checks every DesignReport field by Float64bits.
func compareReports(t *testing.T, got, want *core.DesignReport) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("report %v, want %v", got, want)
	}
	if got == nil {
		return
	}
	sameWords(t, "Model", modelWords(got.Model), modelWords(want.Model))
	sameWords(t, "TrainingFit", got.TrainingFit, want.TrainingFit)
	sameWords(t, "ValidationErr", got.ValidationErr, want.ValidationErr)
	sameWords(t, "Guardbands", got.Guardbands, want.Guardbands)
	sameWords(t, "FinalInputWeights", got.FinalInputWeights, want.FinalInputWeights)
	if got.RSAIterations != want.RSAIterations {
		t.Errorf("RSAIterations %d, want %d", got.RSAIterations, want.RSAIterations)
	}
	if (got.RSA == nil) != (want.RSA == nil) {
		t.Fatalf("RSA %v, want %v", got.RSA, want.RSA)
	}
	if got.RSA != nil {
		g, w := got.RSA, want.RSA
		if g.NominallyStable != w.NominallyStable || g.RobustlyStable != w.RobustlyStable {
			t.Errorf("RSA verdicts %v/%v, want %v/%v", g.NominallyStable, g.RobustlyStable, w.NominallyStable, w.RobustlyStable)
		}
		sameWords(t, "RSA", []float64{g.SpectralRadius, g.PeakGain, g.PeakFrequency, g.Margin},
			[]float64{w.SpectralRadius, w.PeakGain, w.PeakFrequency, w.Margin})
	}
}

// compareControllers checks the controllers' realizations (A, B, C, D)
// and operating-point offsets by Float64bits.
func compareControllers(t *testing.T, got, want *core.MIMOController) {
	t.Helper()
	gotLQ, gotOff := got.CurrentDesign()
	wantLQ, wantOff := want.CurrentDesign()
	gotSS, err := gotLQ.AsStateSpace()
	if err != nil {
		t.Fatal(err)
	}
	wantSS, err := wantLQ.AsStateSpace()
	if err != nil {
		t.Fatal(err)
	}
	sameWords(t, "controller A,B,C,D", matWords(gotSS.A, gotSS.B, gotSS.C, gotSS.D), matWords(wantSS.A, wantSS.B, wantSS.C, wantSS.D))
	sameWords(t, "offsets", append(gotOff.U0, gotOff.Y0...), append(wantOff.U0, wantOff.Y0...))
}

// modelWords flattens every matrix and offset of a model.
func modelWords(m *sysid.Model) []float64 {
	if m == nil {
		return nil
	}
	ms := []*mat.Matrix{m.SS.A, m.SS.B, m.SS.C, m.SS.D, m.B0, m.V, m.K, m.W}
	ms = append(append(ms, m.ABlocks...), m.BBlocks...)
	return append(append(matWords(ms...), m.Off.U0...), m.Off.Y0...)
}

// matWords flattens matrices, each preceded by its shape; a nil matrix
// reads as shape -1.
func matWords(ms ...*mat.Matrix) []float64 {
	var out []float64
	for _, m := range ms {
		if m == nil {
			out = append(out, -1)
			continue
		}
		out = append(out, float64(m.Rows()), float64(m.Cols()))
		out = append(out, m.RawData()...)
	}
	return out
}

func sameWords(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d words, want %d", what, len(got), len(want))
		return
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s: word %d = %v, want %v", what, i, got[i], want[i])
			return
		}
	}
}

// TestFinalInputWeightsAreTheReturnedDesigns: when the robust-stability
// budget runs out before a design is certified (guardbands of 1000% are
// never met), the report names the input weights the returned
// controller was designed at, not one doubling past them.
func TestFinalInputWeightsAreTheReturnedDesigns(t *testing.T) {
	training := experiments.TrainingWorkloads()
	id, err := core.IdentifyMIMO(core.DesignSpec{Training: training, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	spec := func(iters int, freq, cache float64) core.DesignSpec {
		return core.DesignSpec{Training: training, Seed: 7, IPSGuardband: 10, PowerGuardband: 10,
			FreqWeight: freq, CacheWeight: cache, MaxRSAIterations: iters}
	}
	for _, c := range []struct {
		iters int
		want  []float64
	}{
		{1, []float64{core.DefaultFreqWeight, core.DefaultCacheWeight}},
		{3, []float64{4 * core.DefaultFreqWeight, 4 * core.DefaultCacheWeight}},
	} {
		ctrl, rep, err := core.DesignFrom(spec(c.iters, 0, 0), id)
		if err != nil {
			t.Fatalf("%d designs: %v", c.iters, err)
		}
		if rep.RSA.RobustlyStable || rep.RSAIterations != c.iters-1 {
			t.Fatalf("%d designs: robustly stable %v after %d doublings; want the budget spent uncertified",
				c.iters, rep.RSA.RobustlyStable, rep.RSAIterations)
		}
		sameWords(t, "FinalInputWeights", rep.FinalInputWeights, c.want)
		// A spec that starts at the reported weights and stops there
		// designs the same controller.
		at, _, err := core.DesignFrom(spec(1, c.want[0], c.want[1]), id)
		if err != nil {
			t.Fatal(err)
		}
		compareControllers(t, ctrl, at)
	}
}
