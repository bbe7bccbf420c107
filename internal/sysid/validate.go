package sysid

import (
	"errors"
	"math"

	"mimoctl/internal/mat"
)

// Model validation metrics (paper §IV: "we validate the model by running
// additional programs on both the model and the real system ... we
// estimate the model error").

// FitPercent returns, per output channel, the normalized-root-mean-square
// fit in percent (MATLAB's `compare` metric):
//
//	100 * (1 - ||y - ŷ|| / ||y - mean(y)||)
//
// 100 means a perfect fit; 0 means no better than the mean.
func FitPercent(yTrue, yPred *mat.Matrix) ([]float64, error) {
	if yTrue.Rows() != yPred.Rows() || yTrue.Cols() != yPred.Cols() {
		return nil, errors.New("sysid: FitPercent shape mismatch")
	}
	t := yTrue.Rows()
	out := make([]float64, yTrue.Cols())
	for j := 0; j < yTrue.Cols(); j++ {
		var mean float64
		for k := 0; k < t; k++ {
			mean += yTrue.At(k, j)
		}
		mean /= float64(t)
		var num, den float64
		for k := 0; k < t; k++ {
			d := yTrue.At(k, j) - yPred.At(k, j)
			num += d * d
			c := yTrue.At(k, j) - mean
			den += c * c
		}
		if den == 0 {
			if num == 0 {
				out[j] = 100
			}
			continue
		}
		out[j] = 100 * (1 - math.Sqrt(num)/math.Sqrt(den))
	}
	return out, nil
}

// MeanRelError returns, per output, mean(|y - ŷ|) / mean(|y|) — the
// "average prediction error across the whole execution" the paper's
// uncertainty guardbands refer to (§IV-B4).
func MeanRelError(yTrue, yPred *mat.Matrix) ([]float64, error) {
	if yTrue.Rows() != yPred.Rows() || yTrue.Cols() != yPred.Cols() {
		return nil, errors.New("sysid: MeanRelError shape mismatch")
	}
	t := yTrue.Rows()
	out := make([]float64, yTrue.Cols())
	for j := 0; j < yTrue.Cols(); j++ {
		var errSum, magSum float64
		for k := 0; k < t; k++ {
			errSum += math.Abs(yTrue.At(k, j) - yPred.At(k, j))
			magSum += math.Abs(yTrue.At(k, j))
		}
		if magSum == 0 {
			continue
		}
		out[j] = errSum / magSum
	}
	return out, nil
}
