package experiments

// Row returns the sweep cell for (class, arch), or nil.
func (r *FaultSweepResult) Row(class, arch string) *FaultRow {
	for i := range r.Rows {
		if r.Rows[i].Class == class && r.Rows[i].Arch == arch {
			return &r.Rows[i]
		}
	}
	return nil
}

// MeanErr returns the mean tracking error for (workload, arch).
func (r *Fig12Result) MeanErr(workload, arch string) float64 {
	for _, t := range r.Traces {
		if t.Workload == workload && t.Arch == arch {
			return t.MeanAbsErrPct
		}
	}
	return 0
}
