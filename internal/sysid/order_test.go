package sysid

import (
	"errors"
	"fmt"
	"math"

	"mimoctl/internal/mat"
)

// Order selection on held-out data. The design flow fits the orders its
// spec's model dimension names (core.IdentifyMIMO), so only the tests
// and the package's Example select an order this way.

// Split divides the record into a training prefix holding frac of the
// samples and a validation suffix with the remainder.
func (d *Data) Split(frac float64) (train, val *Data) {
	t := int(float64(d.Samples()) * frac)
	if t < 1 {
		t = 1
	}
	if t >= d.Samples() {
		t = d.Samples() - 1
	}
	train = &Data{U: d.U.Slice(0, t, 0, d.U.Cols()), Y: d.Y.Slice(0, t, 0, d.Y.Cols()), Ts: d.Ts}
	val = &Data{U: d.U.Slice(t, d.Samples(), 0, d.U.Cols()), Y: d.Y.Slice(t, d.Samples(), 0, d.Y.Cols()), Ts: d.Ts}
	return train, val
}

// StateDim returns the dimension of the state-space realization produced
// by FitARX for these orders.
func (o ARXOrders) StateDim(outputs int) int {
	p := o.NA
	if o.NB > p {
		p = o.NB
	}
	return p * outputs
}

// MaxRelError returns, per output, the largest |y - ŷ| over the record
// divided by the mean |y|, a robust "maximum error" like the paper's
// 14%/10% model-error figures.
func MaxRelError(yTrue, yPred *mat.Matrix) ([]float64, error) {
	if yTrue.Rows() != yPred.Rows() || yTrue.Cols() != yPred.Cols() {
		return nil, errors.New("sysid: MaxRelError shape mismatch")
	}
	t := yTrue.Rows()
	out := make([]float64, yTrue.Cols())
	for j := 0; j < yTrue.Cols(); j++ {
		var magSum, worst float64
		for k := 0; k < t; k++ {
			magSum += math.Abs(yTrue.At(k, j))
			if d := math.Abs(yTrue.At(k, j) - yPred.At(k, j)); d > worst {
				worst = d
			}
		}
		if magSum == 0 {
			continue
		}
		out[j] = worst / (magSum / float64(t))
	}
	return out, nil
}

// OrderResult records the validation quality of one candidate order.
type OrderResult struct {
	Orders   ARXOrders
	StateDim int
	// MaxErr is the worst per-output MaxRelError on validation data in
	// simulation mode.
	MaxErr []float64
	// Fit is the per-output FitPercent on validation data.
	Fit []float64
}

// SelectOrder fits candidate ARX orders NA = NB = 1..maxOrder (Direct
// feed-through as given) on train, evaluates free-run prediction on val,
// and returns all results plus the index of the smallest order whose
// worst-output error is within tol of the best achieved (the paper picks
// "a good tradeoff between accuracy and computation cost").
func SelectOrder(train, val *Data, maxOrder int, direct bool, tol float64) (best int, results []OrderResult, err error) {
	if maxOrder < 1 {
		return 0, nil, errors.New("sysid: maxOrder must be >= 1")
	}
	for p := 1; p <= maxOrder; p++ {
		ord := ARXOrders{NA: p, NB: p, Direct: direct}
		m, ferr := FitARX(train, ord)
		if ferr != nil {
			return 0, nil, fmt.Errorf("sysid: order %d: %w", p, ferr)
		}
		pred, perr := m.Predict(val)
		if perr != nil {
			return 0, nil, perr
		}
		maxErr, merr := MaxRelError(val.Y, pred)
		if merr != nil {
			return 0, nil, merr
		}
		fit, ferr2 := FitPercent(val.Y, pred)
		if ferr2 != nil {
			return 0, nil, ferr2
		}
		results = append(results, OrderResult{
			Orders: ord, StateDim: ord.StateDim(val.Y.Cols()),
			MaxErr: maxErr, Fit: fit,
		})
	}
	worst := func(r OrderResult) float64 {
		w := 0.0
		for _, e := range r.MaxErr {
			if e > w {
				w = e
			}
		}
		return w
	}
	bestErr := math.Inf(1)
	for _, r := range results {
		if w := worst(r); w < bestErr {
			bestErr = w
		}
	}
	for i, r := range results {
		if worst(r) <= bestErr+tol {
			return i, results, nil
		}
	}
	return len(results) - 1, results, nil
}
