package supervisor

// GraceEpochs is the alarm grace period, for the external tests that
// warm a loop past it.
const GraceEpochs = graceEpochs
