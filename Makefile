GO ?= go

.PHONY: check vet build test race cover fuzz golden golden-doctor golden-tsdb

# check is the default verify flow: vet + build + race-enabled tests,
# plus vet and tests of the bench/ module.
check:
	./scripts/check.sh

# cover enforces the coverage floor and prints per-package deltas
# against scripts/coverage_baseline.txt (UPDATE=1 refreshes it).
cover:
	./scripts/coverage.sh

# fuzz gives every fuzz target a short exploratory run (CI smoke time);
# raise FUZZTIME for a deeper local session. scripts/check.sh fails when
# a Fuzz function in a _test.go file is missing from this list, and when
# a line names a target its package does not define.
fuzz:
	$(GO) test ./internal/telemetry/ -run '^$$' -fuzz FuzzLabelRoundTrip -fuzztime $(or $(FUZZTIME),10s)
	$(GO) test ./internal/sysid/ -run '^$$' -fuzz FuzzPRBS -fuzztime $(or $(FUZZTIME),10s)
	$(GO) test ./internal/experiments/ -run '^$$' -fuzz 'FuzzSteadyStateEpoch$$' -fuzztime $(or $(FUZZTIME),10s)
	$(GO) test ./internal/experiments/ -run '^$$' -fuzz FuzzSteadyStateEpochEMA -fuzztime $(or $(FUZZTIME),10s)
	$(GO) test ./internal/lqg/ -run '^$$' -fuzz FuzzStepVsReference -fuzztime $(or $(FUZZTIME),10s)
	$(GO) test ./internal/sim/ -run '^$$' -fuzz FuzzQuantHysteresis -fuzztime $(or $(FUZZTIME),10s)
	$(GO) test ./internal/tsdb/ -run '^$$' -fuzz FuzzBlockRoundTrip -fuzztime $(or $(FUZZTIME),10s)
	$(GO) test ./internal/flightrec/ -run '^$$' -fuzz FuzzReadDump -fuzztime $(or $(FUZZTIME),10s)
	$(GO) test ./internal/sim/ -run '^$$' -fuzz FuzzSurfaceMatchesReference -fuzztime $(or $(FUZZTIME),10s)
	$(GO) test ./internal/sim/ -run '^$$' -fuzz FuzzStaticSweepMatchesProcessor -fuzztime $(or $(FUZZTIME),10s)
	$(GO) test ./internal/sim/ -run '^$$' -fuzz FuzzLockstepMatchesProcessors -fuzztime $(or $(FUZZTIME),10s)
	$(GO) test ./internal/batch/ -run '^$$' -fuzz FuzzSupervisedBatchVsScalar -fuzztime $(or $(FUZZTIME),10s)

# golden re-records the golden regression CSVs after an intentional
# output change; review the diff like code.
golden:
	$(GO) test ./internal/experiments/ -run TestGolden -update

# golden-doctor re-records the committed flight-recorder dumps the
# mimodoctor smoke job diagnoses (testdata/golden/doctor_sensor-freeze.frec
# and doctor_plant-drift.frec); needed after an intentional
# recording-format or control-loop change.
golden-doctor:
	$(GO) test ./internal/experiments/ -run TestGoldenDoctorDump -update

# golden-tsdb re-records the committed baseline telemetry snapshot
# (testdata/golden/tsdb_baseline.json) the drift detector scores live
# runs against; needed after an intentional control-loop or
# history-recording change. Review the stat drift like code.
golden-tsdb:
	$(GO) test ./internal/experiments/ -run TestHistoryBaselineDrift -update

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...
