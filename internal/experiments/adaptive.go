package experiments

import (
	"mimoctl/internal/adapt"
	"mimoctl/internal/health"
	"mimoctl/internal/supervisor"
)

// The adaptive architecture: the designed MIMO controller under the
// supervised runtime with the model-health monitor and the adaptation
// loop (internal/adapt) attached. On detected drift the adapter excites
// the plant, re-identifies it with streaming RLS, redesigns the LQG
// gains, and hot-swaps them into the running controller — the sweep's
// answer to the one fault class the non-adaptive supervisor cannot fix.
// The supervisor, monitor and adapter run their packages' one tuning,
// whose timing the sweep's timeline fixes (internal/adapt).

// NewMonitoredSupervised builds the non-adaptive supervised architecture
// for the fault sweep and RecordedRun: the same supervised runtime and
// model-health monitor as the adaptive arch, with no adapter. Under
// plant drift its monitor reaches the fail verdict, the supervisor pins
// the safe configuration, and — with nothing able to restore the
// certificate — it stays there: the control the adaptive arch is
// measured against.
func NewMonitoredSupervised(seed int64) (*supervisor.Supervised, error) {
	proto, _, err := DesignedMIMO(false, seed)
	if err != nil {
		return nil, err
	}
	return supervisor.New(bindMIMO(proto.Clone()), supervisor.Options{ModelHealth: health.NewMonitor()}), nil
}

// NewAdaptiveSupervised builds the adaptive architecture for the fault
// sweep and RecordedRun. Both call sites must construct it identically
// (same seeds) so a recorded adaptive run replays byte-for-byte.
func NewAdaptiveSupervised(seed int64) (*supervisor.Supervised, error) {
	proto, rep, err := DesignedMIMO(false, seed)
	if err != nil {
		return nil, err
	}
	ctrl := bindMIMO(proto.Clone())
	mon := health.NewMonitor()
	ad, err := adapt.New(adapt.Options{
		Model:          rep.Model,
		Target:         ctrl,
		Monitor:        mon,
		Seed:           seed + 9001,
		IPSGuardband:   rep.Guardbands[0],
		PowerGuardband: rep.Guardbands[1],
	})
	if err != nil {
		return nil, err
	}
	return supervisor.New(ctrl, supervisor.Options{ModelHealth: mon, Adapter: ad}), nil
}
