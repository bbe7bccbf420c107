package core

import (
	"errors"
	"fmt"
	"math/rand"

	"mimoctl/internal/lqg"
	"mimoctl/internal/mat"
	"mimoctl/internal/robust"
	"mimoctl/internal/sim"
	"mimoctl/internal/sysid"
)

// DesignSpec parameterizes the Fig. 3 controller-design flow.
type DesignSpec struct {
	// ThreeInput adds the ROB knob (§VI-D).
	ThreeInput bool
	// ModelDimension is the state dimension of the identified model
	// (paper: 4). It is realized as ARX orders NA = NB = dim/2 for the
	// two outputs.
	ModelDimension int
	// Output/input weights; zero values take the Table III defaults
	// (the ROB knob's is always DefaultROBWeight).
	IPSWeight, PowerWeight  float64
	FreqWeight, CacheWeight float64
	// Guardbands for robust stability analysis; zero values take the
	// paper's 50%/30%.
	IPSGuardband, PowerGuardband float64
	// EpochsPerApp is the identification waveform length per training
	// application.
	EpochsPerApp int
	// Training and Validation workloads; nil selects the paper's sets
	// only when the caller wires them in (the experiments package does).
	Training   []sim.Workload
	Validation []sim.Workload
	// Seed fixes the excitation randomness.
	Seed int64
	// MaxRSAIterations bounds the redesign loop that raises input
	// weights until robust stability holds.
	MaxRSAIterations int
	// DisableDeltaU and DisableIntegral switch off the Δu-penalized
	// formulation and the integral action, for ablation studies; the
	// paper's controller uses both.
	DisableDeltaU   bool
	DisableIntegral bool
}

// validationEpochs is the length of each validation run.
const validationEpochs = 1500

// DefaultEpochsPerApp is the identification record length per training
// application.
const DefaultEpochsPerApp = 3000

// withDefaults fills zero fields with Table III values.
func (s DesignSpec) withDefaults() DesignSpec {
	if s.ModelDimension == 0 {
		s.ModelDimension = DefaultModelDimension
	}
	if s.IPSWeight == 0 {
		s.IPSWeight = DefaultIPSWeight
	}
	if s.PowerWeight == 0 {
		s.PowerWeight = DefaultPowerWeight
	}
	if s.FreqWeight == 0 {
		s.FreqWeight = DefaultFreqWeight
	}
	if s.CacheWeight == 0 {
		s.CacheWeight = DefaultCacheWeight
	}
	if s.IPSGuardband == 0 {
		s.IPSGuardband = DefaultIPSGuardband
	}
	if s.PowerGuardband == 0 {
		s.PowerGuardband = DefaultPowerGuardband
	}
	if s.EpochsPerApp == 0 {
		s.EpochsPerApp = DefaultEpochsPerApp
	}
	if s.MaxRSAIterations == 0 {
		s.MaxRSAIterations = 8
	}
	return s
}

// DesignReport records the artifacts and diagnostics of a design run.
type DesignReport struct {
	Model *sysid.Model
	// FitPercent of the model on the training record per output.
	TrainingFit []float64
	// ValidationErr is the per-output mean relative prediction error on
	// the held-out applications (paper: 14% IPS, 10% power).
	ValidationErr []float64
	// Guardbands actually used for RSA.
	Guardbands []float64
	// RSA is the final robust-stability report.
	RSA *robust.Report
	// RSAIterations counts how many redesigns (input-weight doublings)
	// were needed before the robustness check passed.
	RSAIterations int
	// FinalInputWeights after any RSA-driven increases.
	FinalInputWeights []float64
}

// CollectIdentificationData applies persistently exciting random-level
// waveforms to every knob of a processor running each training workload
// and records the input/output waveforms (paper §IV-B1). Inputs are in
// the controller's normalized units; outputs are [IPS, power].
func CollectIdentificationData(training []sim.Workload, threeInput bool, epochsPerApp int, seed int64) (*sysid.Data, error) {
	if len(training) == 0 {
		return nil, errors.New("core: no training workloads")
	}
	if epochsPerApp < 100 {
		return nil, errors.New("core: need at least 100 epochs per application")
	}
	nu := 2
	if threeInput {
		nu = 3
	}
	// Each application contributes epochsPerApp-1 rows: the record pairs
	// the input applied at step k with the output measured one epoch
	// later, matching the deployed loop (the controller's decision
	// affects the *next* measurement) and the delay-form ARX model.
	total := (epochsPerApp - 1) * len(training)
	u := mat.New(total, nu)
	y := mat.New(total, 2)
	row := 0
	uk := make([]float64, 0, nu)
	freqLevels := sim.FreqLevels()
	for wi, w := range training {
		rng := rand.New(rand.NewSource(seed + int64(wi)*7919))
		proc, err := sim.NewProcessor(w, sim.DefaultProcessorOptions(), seed+int64(wi)*104729)
		if err != nil {
			return nil, err
		}
		// Independent random-level waveforms per knob. Holds are short —
		// a few epochs — so successive outputs decorrelate from the
		// held input and the regression can separate the input gain from
		// the output autoregression.
		freqSig := sysid.RandomLevels(rng, epochsPerApp, freqLevels, 2, 8)
		cacheSig := sysid.RandomLevels(rng, epochsPerApp, sim.CacheWaysLevels(), 3, 12)
		robSig := sysid.RandomLevels(rng, epochsPerApp, normalizedROBLevels(), 2, 10)
		havePrev := false
		var prevIPS, prevPower float64
		for k := 0; k < epochsPerApp; k++ {
			rob := 48.0
			if threeInput {
				rob = robSig[k] * ROBUnit
			}
			cfg := sim.NearestConfig(freqSig[k], cacheSig[k], rob)
			if err := proc.Apply(cfg); err != nil {
				return nil, err
			}
			tel := proc.Step()
			if havePrev {
				// Row t holds u(t) = this step's input and y(t) = the
				// previous epoch's output, so that y(t+1) — the output
				// this input produces — lands one row later, matching
				// x(t+1) = A x(t) + B u(t), y = C x.
				uk = knobsFromConfigInto(uk, cfg, threeInput)
				for j, v := range uk {
					u.Set(row, j, v)
				}
				y.Set(row, 0, prevIPS)
				y.Set(row, 1, prevPower)
				row++
			}
			prevIPS, prevPower = tel.IPS, tel.PowerW
			havePrev = true
		}
	}
	return sysid.NewData(u, y, sim.EpochSeconds)
}

func normalizedROBLevels() []float64 {
	levels := sim.ROBLevels()
	out := make([]float64, len(levels))
	for i, v := range levels {
		out[i] = v / ROBUnit
	}
	return out
}

// Identification is the model half of the Fig. 3 flow: the ARX model
// fit on the training record and its fit there. It depends only on the
// knob set, model dimension, training set, record length and seed, and
// nothing writes through it once built, so any number of designs (and
// their clones) may share one.
type Identification struct {
	Model *sysid.Model
	// TrainingFit is the model's FitPercent on the training record per
	// output (nil if the prediction failed).
	TrainingFit []float64
}

// arxOrders realizes a model dimension as ARX orders: state dim = NA *
// outputs, two outputs.
func arxOrders(dim int) sysid.ARXOrders {
	na := (dim + 1) / 2
	if na < 1 {
		na = 1
	}
	return sysid.ARXOrders{NA: na, NB: na}
}

// IdentifyMIMO runs the identification steps of the Fig. 3 flow:
// collect the excitation record on the training set, then IdentifyFrom
// it. Of spec it reads only ThreeInput, ModelDimension, Training,
// EpochsPerApp and Seed.
func IdentifyMIMO(spec DesignSpec) (*Identification, error) {
	spec = spec.withDefaults()
	if len(spec.Training) == 0 {
		return nil, errors.New("core: DesignSpec.Training is required")
	}
	data, err := CollectIdentificationData(spec.Training, spec.ThreeInput, spec.EpochsPerApp, spec.Seed)
	if err != nil {
		return nil, fmt.Errorf("core: identification: %w", err)
	}
	return IdentifyFrom(data, spec.ModelDimension)
}

// IdentifyFrom fits the state-space model of dimension dim (0 =
// DefaultModelDimension) on a training record and scores it there. It
// only reads data, so one record collected by CollectIdentificationData
// may serve every dimension of its knob set and seed, concurrently.
func IdentifyFrom(data *sysid.Data, dim int) (*Identification, error) {
	if dim == 0 {
		dim = DefaultModelDimension
	}
	model, err := sysid.FitARX(data, arxOrders(dim))
	if err != nil {
		return nil, fmt.Errorf("core: model fit: %w", err)
	}
	id := &Identification{Model: model}
	if pred, err := model.Predict(data); err == nil {
		id.TrainingFit, _ = sysid.FitPercent(data.Y, pred)
	}
	return id, nil
}

// DesignMIMO runs the full Fig. 3 flow: IdentifyMIMO, then DesignFrom
// on its model.
func DesignMIMO(spec DesignSpec) (*MIMOController, *DesignReport, error) {
	id, err := IdentifyMIMO(spec)
	if err != nil {
		return nil, nil, err
	}
	return DesignFrom(spec, id)
}

// DesignFrom runs the synthesis steps of the Fig. 3 flow on an
// identified model: validate the model on held-out applications, design
// the LQG controller with the Table III weights, and iterate Robust
// Stability Analysis — doubling the input weights when the check fails
// — until the design is certified. id must come from IdentifyMIMO at
// spec's knob set and model dimension; the controller and the report
// share its model and training fit.
func DesignFrom(spec DesignSpec, id *Identification) (*MIMOController, *DesignReport, error) {
	spec = spec.withDefaults()
	if id == nil || id.Model == nil {
		return nil, nil, errors.New("core: DesignFrom needs an identification")
	}
	model := id.Model
	nu := 2
	if spec.ThreeInput {
		nu = 3
	}
	if got := model.SS.Inputs(); got != nu {
		return nil, nil, fmt.Errorf("core: identification has %d inputs, spec wants %d", got, nu)
	}
	if got, want := model.Orders, arxOrders(spec.ModelDimension); got != want {
		return nil, nil, fmt.Errorf("core: identification has ARX orders %+v, model dimension %d wants %+v",
			got, spec.ModelDimension, want)
	}
	rep := &DesignReport{Model: model, TrainingFit: id.TrainingFit}

	// Validate on held-out applications (paper §VI-A2).
	if len(spec.Validation) > 0 {
		valData, err := CollectIdentificationData(spec.Validation, spec.ThreeInput, validationEpochs, spec.Seed+99991)
		if err != nil {
			return nil, nil, fmt.Errorf("core: validation runs: %w", err)
		}
		pred, err := model.Predict(valData)
		if err != nil {
			return nil, nil, err
		}
		rep.ValidationErr, err = sysid.MeanRelError(valData.Y, pred)
		if err != nil {
			return nil, nil, err
		}
	}
	rep.Guardbands = []float64{spec.IPSGuardband, spec.PowerGuardband}

	inW := []float64{spec.FreqWeight, spec.CacheWeight}
	if spec.ThreeInput {
		inW = append(inW, DefaultROBWeight)
	}
	outW := []float64{spec.IPSWeight, spec.PowerWeight}

	var lq *lqg.Controller
	for iter := 0; iter < spec.MaxRSAIterations; iter++ {
		var err error
		lq, err = lqg.Design(model.SS,
			lqg.Weights{OutputWeights: outW, InputWeights: inW},
			lqg.Noise{W: model.W, V: model.V},
			lqg.Options{DeltaU: !spec.DisableDeltaU, Integral: !spec.DisableIntegral})
		if err != nil {
			return nil, nil, fmt.Errorf("core: LQG design: %w", err)
		}
		ctrlSS, err := lq.AsStateSpace()
		if err != nil {
			return nil, nil, err
		}
		rsa, err := robust.Analyze(model.SS, ctrlSS, rep.Guardbands)
		if err != nil {
			return nil, nil, fmt.Errorf("core: robust stability analysis: %w", err)
		}
		rep.RSA = rsa
		rep.RSAIterations = iter
		if rsa.NominallyStable && rsa.RobustlyStable {
			break
		}
		// Paper §IV-B4: "use lower Q weights relative to R weights,
		// thereby making the system less ripply" — double input weights.
		for i := range inW {
			inW[i] *= 2
		}
	}
	rep.FinalInputWeights = inW
	if rep.RSA == nil || !rep.RSA.NominallyStable {
		return nil, rep, errors.New("core: design did not reach nominal stability")
	}
	ctrl, err := NewMIMOController(lq, model.Off, spec.ThreeInput)
	if err != nil {
		return nil, rep, err
	}
	return ctrl, rep, nil
}
