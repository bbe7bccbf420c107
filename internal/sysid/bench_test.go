package sysid_test

// BenchmarkSystemIdentification times the ARX fit of the design flow
// on the training set's identification record (collected once, outside
// the timer).
//
// Run with: go test ./internal/sysid/ -run '^$' -bench=SystemIdentification -benchmem

import (
	"testing"

	"mimoctl/internal/core"
	"mimoctl/internal/experiments"
	"mimoctl/internal/sysid"
)

func BenchmarkSystemIdentification(b *testing.B) {
	data, err := core.CollectIdentificationData(experiments.TrainingWorkloads(), false, 1500, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sysid.FitARX(data, sysid.ARXOrders{NA: 2, NB: 2}); err != nil {
			b.Fatal(err)
		}
	}
}
