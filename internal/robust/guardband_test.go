package robust

import "mimoctl/internal/lti"

// WorstCaseGuardband returns the largest uniform guardband g (applied to
// every output) for which the small-gain certificate still holds,
// computed as 1/‖M‖∞ with unit weights. Useful for reporting how
// conservative a design is (paper §VIII-C).
func WorstCaseGuardband(plant, ctrl *lti.StateSpace) (float64, error) {
	ones := make([]float64, plant.Outputs())
	for i := range ones {
		ones[i] = 1
	}
	rep, err := Analyze(plant, ctrl, ones)
	if err != nil {
		return 0, err
	}
	if !rep.NominallyStable {
		return 0, nil
	}
	return rep.Margin, nil
}
