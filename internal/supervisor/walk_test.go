package supervisor

import (
	"fmt"
	"testing"
	"time"
)

// TestModeWalk walks the mode machine (modeState.next) over every state
// it can reach from New's at the shipped constants, and checks the
// supervisor's contract on every transition:
//
//  1. a channel implausible on every epoch from some engaged epoch on
//     falls back within maxStaleEpochs + fallbackAfter + 1 epochs, grace,
//     adapter swaps and reverts or not;
//  2. grace suppresses the model-health alarms and never a dead channel;
//  3. fallback ends only after reengageAfter consecutive healthy epochs
//     with the certificate OK, or at once on an adapter swap;
//  4. a hold or retry follows only a failed apply of a request, the
//     backoff and every hold are at most 2 epochs, and the sixth
//     consecutive failed apply while engaged falls back;
//  5. every counter stays bounded.
//
// A transition is one epoch as StepEvent and a harness drive it: a
// target change or none, the step, the adapter's swap or revert when
// the adapter ran, and the step's one apply report. Every input is
// free: each channel plausible or not, a model-health alarm or not (an
// over-approximation of the smoothed alarms), the certificate OK or
// not, swap, revert or neither, the apply OK or failed.
//
// The product of the parts is too large to walk in a test: the grace
// countdown times both channels' staleness times the sick streak is
// about three million engaged states before actuation. So the walk
// explores each part exhaustively — each channel with the sick streak,
// the grace countdown with the sick streak, actuation, and the fallback
// hysteresis — with every other field drawn each epoch from a context
// set that gives the other parts' every effect on it: a dead channel,
// armed alarms, a fallback forced by failed applies or sick epochs, a
// re-engagement. Drawing them freely each epoch over-approximates the
// product, so a safety property that holds on every walked transition
// holds on every reachable one. The contexts are themselves reachable
// states of their parts (checked below).
//
// The walk reports, for each constant, whether any reachable transition
// turns on it; run with -v to see the report.
func TestModeWalk(t *testing.T) {
	start := time.Now()
	// Context values: reachable values of the fields a part does not
	// walk. nominal and failing are actuation states (the latter falls
	// back on its next failed apply), calm and sick sensing states (the
	// latter falls back on its next dead or alarmed epoch).
	nominal := modeState{applyOK: true, haveRequested: true}
	failing := modeState{failStreak: applyFallbackAfter - 1, backoff: 2, holdEpochs: 1, haveRequested: true}
	calm := modeState{grace: graceEpochs}
	sick := modeState{staleIPS: maxStaleEpochs + 1, sickStreak: fallbackAfter - 1}
	actuated := func(m, a modeState) modeState {
		m.applyOK, m.failStreak, m.backoff, m.holdEpochs, m.haveRequested = a.applyOK, a.failStreak, a.backoff, a.holdEpochs, a.haveRequested
		return m
	}
	var sensed, channelCtx [2][]modeState
	for _, sense := range []modeState{calm, sick} {
		for _, a := range []modeState{nominal, failing} {
			sensed[0] = append(sensed[0], actuated(sense, a))
		}
		for _, h := range []int{0, reengageAfter - 1} {
			m := sense
			m.healthyStreak = h
			sensed[1] = append(sensed[1], m)
		}
	}
	// A channel walks with the other dead or alive, and the alarms armed
	// or in grace.
	for _, other := range []int{0, maxStaleEpochs + 1} {
		for _, g := range []int{0, 1} {
			for _, a := range []modeState{nominal, failing} {
				ips, power := actuated(modeState{grace: g}, a), actuated(modeState{grace: g}, a)
				ips.stalePower, power.staleIPS = other, other
				channelCtx[0] = append(channelCtx[0], ips)
				channelCtx[1] = append(channelCtx[1], power)
			}
		}
	}
	// A target change moves only the grace, and a revert only what a
	// swap moves; a swap re-engages a channel as the hysteresis would.
	channelClasses := func(c class) bool { return !c.retarget && c.certOK && c.adapt != evRevert }
	parts := []part{
		{"IPS channel", func(dst, src modeState) modeState {
			dst.mode, dst.staleIPS, dst.sickStreak = src.mode, src.staleIPS, src.sickStreak
			return dst
		}, channelCtx[0], channelClasses},
		{"power channel", func(dst, src modeState) modeState {
			dst.mode, dst.stalePower, dst.sickStreak = src.mode, src.stalePower, src.sickStreak
			return dst
		}, channelCtx[1], channelClasses},
		{"grace", func(dst, src modeState) modeState {
			dst.mode, dst.grace = src.mode, src.grace
			return dst
		}, sensed[0], func(class) bool { return true }},
		{"actuation", func(dst, src modeState) modeState {
			dst = actuated(dst, src)
			dst.mode = src.mode
			return dst
		}, sensed[1], func(class) bool { return true }},
		{"hysteresis", func(dst, src modeState) modeState {
			dst.mode, dst.healthyStreak = src.mode, src.healthyStreak
			return dst
		}, sensed[0], func(class) bool { return true }},
	}
	w := &walk{t: t}
	reached := make([]map[modeState]bool, len(parts))
	found := make([]evidence, len(parts))
	for i, p := range parts {
		reached[i] = w.explore(p)
		found[i], w.found = w.found, evidence{}
		t.Logf("%-13s %5d states %7d transitions", p.name, len(reached[i]), found[i].transitions)
	}
	// Every context value is reachable in the part that walks it.
	for _, c := range []struct {
		part int
		m    modeState
	}{
		{0, sick},
		{1, modeState{stalePower: maxStaleEpochs + 1}},
		{2, modeState{grace: 1}},
		{2, modeState{}},
		{2, calm},
		{3, nominal},
		{3, failing},
		{4, modeState{mode: ModeFallback, healthyStreak: reengageAfter - 1}},
	} {
		if k := parts[c.part].keep(modeState{}, c.m); !reached[c.part][k] {
			t.Errorf("context %+v is not a reachable %s state", k, parts[c.part].name)
		}
	}
	t.Logf("walked in %v", time.Since(start).Round(time.Millisecond))
	if w.fails > 0 {
		t.Fatalf("%d transitions break the contract", w.fails)
	}

	// Which constants bind: a constant binds when some reachable
	// transition of the part that walks it turns on it.
	ch, gr, act, hy := found[0], found[2], found[3], found[4]
	report := []struct {
		name           string
		value          int
		binds, deleted bool
		why            string
	}{
		{"maxStaleEpochs", maxStaleEpochs, ch.deadAt > 0, false,
			fmt.Sprintf("IPS: %d transitions find the channel dead on implausible epoch %d", ch.deadAt, maxStaleEpochs+1)},
		{"fallbackAfter", fallbackAfter, ch.sickFallbacks > 0, false,
			fmt.Sprintf("IPS: %d transitions fall back on sick epoch %d", ch.sickFallbacks, fallbackAfter)},
		{"graceEpochs", graceEpochs, gr.suppressed > 0 && gr.graceEnds > 0, false,
			fmt.Sprintf("grace: %d transitions ignore an alarm in grace, %d end a grace period", gr.suppressed, gr.graceEnds)},
		{"applyFallbackAfter", applyFallbackAfter, act.applyFallbacks > 0, false,
			fmt.Sprintf("actuation: %d transitions fall back on failed apply %d", act.applyFallbacks, applyFallbackAfter)},
		{"reengageAfter", reengageAfter, hy.reengagements > 0, false,
			fmt.Sprintf("hysteresis: %d transitions re-engage on healthy epoch %d", hy.reengagements, reengageAfter)},
		// The two constants the mode machine dropped, as refSupervised
		// reads them: the backoff doubles only while below 8, and a
		// re-engagement needs at least 100 fallback epochs. The healthy
		// streak counts fallback epochs only (checked above), so the
		// dwell is at least the streak.
		{"applyBackoffLimit", refApplyBackoffLimit, act.maxRetryBackoff >= refApplyBackoffLimit, true,
			fmt.Sprintf("deleted; the largest backoff a retry doubles is %d", act.maxRetryBackoff)},
		{"minFallbackEpochs", refMinFallbackEpochs, hy.minReengageStreak < refMinFallbackEpochs, true,
			fmt.Sprintf("deleted; every hysteresis re-engagement follows %d consecutive fallback epochs", hy.minReengageStreak)},
	}
	for _, r := range report {
		verdict := "binds"
		if !r.binds {
			verdict = "never binds"
		}
		t.Logf("%-18s %4d  %-11s  %s", r.name, r.value, verdict, r.why)
	}
	t.Logf("a channel implausible from an engaged epoch on falls back within %d epochs", ch.maxRank)
	for _, r := range report {
		if r.binds == r.deleted {
			t.Errorf("%s: binds %v, deleted %v", r.name, r.binds, r.deleted)
		}
	}
}

// class is one epoch's input class.
type class struct {
	retarget, ipsOK, powerOK, alarm, certOK, applied bool
	adapt                                            event // evStep: the adapter did not swap or revert
}

// classes lists every input class of an epoch.
func classes() []class {
	var out []class
	for bits := 0; bits < 1<<6; bits++ {
		for _, a := range []event{evStep, evSwap, evRevert} {
			bit := func(i int) bool { return bits&(1<<i) != 0 }
			out = append(out, class{bit(0), bit(1), bit(2), bit(3), bit(4), bit(5), a})
		}
	}
	return out
}

// epochRun is what one epoch did: the state after the target change,
// the step's action and state, whether the adapter ran, and the state
// after the adapter and after the apply report.
type epochRun struct {
	pre, stepped, adapted, post modeState
	act                         action
	adapterRan                  bool
}

// changed reports whether a transition from a to b went from mode from
// to the other mode.
func changed(a, b modeState, from Mode) bool { return a.mode == from && b.mode != from }

// epoch runs one epoch of the mode machine as StepEvent and a harness
// drive it.
func epoch(m modeState, c class) epochRun {
	var r epochRun
	if c.retarget {
		m.next(input{ev: evTarget})
	}
	r.pre = m
	r.act = m.next(input{ev: evStep, ipsOK: c.ipsOK, powerOK: c.powerOK, alarm: c.alarm, certOK: c.certOK})
	r.stepped = m
	// The adapter runs on every fallback epoch and on the engaged epochs
	// the inner controller steps.
	r.adapterRan = r.pre.mode == ModeFallback || r.act == actStep
	if r.adapterRan && c.adapt != evStep {
		m.next(input{ev: c.adapt})
	}
	r.adapted = m
	m.next(input{ev: evApply, applied: c.applied})
	r.post = m
	return r
}

// part is one projection of the mode machine the walk explores: keep
// returns dst with src's values of the part's fields, ctx are the values the other fields take
// (one drawn per epoch), and classes picks the input classes that can
// move the part's fields differently.
type part struct {
	name    string
	keep    func(dst, src modeState) modeState
	ctx     []modeState
	classes func(class) bool
}

// walk explores parts and collects the contract's violations and the
// constants' binding evidence.
type walk struct {
	t     *testing.T
	fails int
	found evidence // the part being walked
}

// evidence is what a part's walk saw turn on each constant.
type evidence struct {
	transitions                                  int
	maxRank                                      int // contract 1's bound
	deadAt, sickFallbacks, suppressed, graceEnds int
	applyFallbacks, reengagements                int
	maxRetryBackoff                              int
	minReengageStreak                            int
}

// explore walks p breadth first from New's state and returns the set of
// reachable projections.
func (w *walk) explore(p part) map[modeState]bool {
	start := p.keep(modeState{}, new(modeState).engage())
	seen := map[modeState]bool{start: true}
	queue := []modeState{start}
	var cls []class
	for _, c := range classes() {
		if p.classes(c) {
			cls = append(cls, c)
		}
	}
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		for _, ctx := range p.ctx {
			m := p.keep(ctx, k)
			for _, c := range cls {
				r := epoch(m, c)
				w.found.transitions++
				w.check(r, c, p.keep)
				if nk := p.keep(modeState{}, r.post); !seen[nk] {
					seen[nk] = true
					queue = append(queue, nk)
				}
			}
		}
	}
	return seen
}

// rank bounds the epochs a channel with staleness stale has left before
// the loop falls back, if the channel stays implausible: the epochs to
// its dead epoch plus the sick epochs after it, or the sick epochs left
// once it is dead. It falls by at least one every epoch the channel
// stays implausible and is at least 1 while engaged.
func rank(m modeState, stale int) int {
	if stale <= maxStaleEpochs {
		return maxStaleEpochs + 1 - stale + fallbackAfter - 1
	}
	return fallbackAfter - m.sickStreak
}

// fail counts a contract violation and reports the first few.
func (w *walk) fail(r epochRun, c class, format string, args ...any) {
	w.fails++
	if w.fails <= 10 {
		w.t.Errorf("%+v --%+v--> %+v: "+format, append([]any{r.pre, c, r.post}, args...)...)
	}
}

// check asserts the contract on one epoch and notes which constants the
// epoch turned on. The bounds are checked on the walked part's fields,
// keep's projection; the rest holds for any state.
func (w *walk) check(r epochRun, c class, keep func(dst, src modeState) modeState) {
	pre, post := r.pre, r.post
	b := &w.found
	engaged := pre.mode == ModeEngaged

	// 1. A channel implausible from an engaged epoch on: every such
	// epoch falls back or lowers the channel's rank, which starts at
	// most maxStaleEpochs + fallbackAfter + 1.
	channels := [2]struct {
		ok         bool
		stale, now int
	}{{c.ipsOK, pre.staleIPS, post.staleIPS}, {c.powerOK, pre.stalePower, post.stalePower}}
	for _, ch := range channels {
		if !engaged {
			break
		}
		pr := rank(pre, ch.stale)
		b.maxRank = max(b.maxRank, pr)
		if pr < 1 || pr > maxStaleEpochs+fallbackAfter+1 {
			w.fail(r, c, "rank %d out of [1, %d]", pr, maxStaleEpochs+fallbackAfter+1)
		}
		if !ch.ok && post.mode == ModeEngaged && rank(post, ch.now) >= pr {
			w.fail(r, c, "implausible channel's rank %d → %d", pr, rank(post, ch.now))
		}
		if !ch.ok && ch.stale == maxStaleEpochs {
			b.deadAt++
		}
	}

	// 2. Grace: the step ignores the alarm until the grace period ends,
	// and counts a dead channel whatever the grace.
	if engaged && pre.grace > 0 {
		m := pre
		if a := m.next(input{ev: evStep, ipsOK: c.ipsOK, powerOK: c.powerOK, alarm: !c.alarm, certOK: c.certOK}); m != r.stepped || a != r.act {
			w.fail(r, c, "alarm read in grace")
		}
		if c.alarm {
			b.suppressed++
		}
		if pre.grace == 1 {
			b.graceEnds++
		}
	}
	stepFellBack := changed(pre, r.stepped, ModeEngaged)
	if engaged && r.stepped.dead() && !stepFellBack && r.stepped.sickStreak != pre.sickStreak+1 {
		w.fail(r, c, "dead channel not counted sick")
	}
	if stepFellBack {
		b.sickFallbacks++
		if pre.sickStreak+1 < fallbackAfter {
			w.fail(r, c, "fell back after %d sick epochs", pre.sickStreak+1)
		}
	}

	// 3. Hysteresis: a fallback epoch counts a healthy epoch (both
	// channels plausible, the last apply OK) or restarts the count; the
	// count starts at zero on the fallback; and fallback ends on
	// reengageAfter of them with the certificate OK, or on a swap.
	if !engaged {
		want := 0
		if c.ipsOK && c.powerOK && pre.applyOK {
			want = min(pre.healthyStreak+1, reengageAfter)
		}
		switch {
		case changed(pre, r.stepped, ModeFallback):
			if want < reengageAfter || !c.certOK {
				w.fail(r, c, "re-engaged after %d healthy epochs, certificate %v", want, c.certOK)
			}
			b.reengagements++
			if b.minReengageStreak == 0 || want < b.minReengageStreak {
				b.minReengageStreak = want
			}
		case r.stepped.healthyStreak != want:
			w.fail(r, c, "healthy streak %d → %d, want %d", pre.healthyStreak, r.stepped.healthyStreak, want)
		}
		if swapped := changed(r.stepped, r.adapted, ModeFallback); swapped != (c.adapt == evSwap && r.stepped.mode == ModeFallback) {
			w.fail(r, c, "swap re-engagement %v", swapped)
		}
	} else if post.mode == ModeFallback && post.healthyStreak != 0 {
		w.fail(r, c, "fell back with a healthy streak %d", post.healthyStreak)
	}

	// 4. Actuation: holds and retries only after a failed apply of a
	// request; a failed apply while engaged falls back on the
	// applyFallbackAfter-th in a row; a successful one clears the retry.
	if a := r.act; (a == actHold || a == actRetry) && (pre.applyOK || !pre.haveRequested) {
		w.fail(r, c, "%v without a failed apply of a request", a)
	}
	if r.act == actRetry {
		b.maxRetryBackoff = max(b.maxRetryBackoff, pre.backoff)
	}
	if a := r.adapted; a.mode == ModeEngaged && !c.applied {
		fellBack := changed(a, post, ModeEngaged)
		if fellBack != (a.failStreak+1 >= applyFallbackAfter) {
			w.fail(r, c, "apply failure %d fell back %v", a.failStreak+1, fellBack)
		}
		if fellBack {
			b.applyFallbacks++
		} else if post.failStreak != a.failStreak+1 {
			w.fail(r, c, "fail streak %d → %d", a.failStreak, post.failStreak)
		}
	}
	if c.applied && (post.failStreak != 0 || post.backoff != 0 || post.holdEpochs != 0 || !post.applyOK) {
		w.fail(r, c, "a successful apply left a retry in flight")
	}

	// 5. Bounds, and no retry state without a failed apply (Nominal reads
	// applyOK alone).
	for _, s := range [3]modeState{r.stepped, r.adapted, post} {
		m := keep(modeState{}, s)
		in := func(v, hi int) bool { return v >= 0 && v <= hi }
		ok := in(m.staleIPS, maxStaleEpochs+1) && in(m.stalePower, maxStaleEpochs+1) &&
			in(m.grace, graceEpochs) && in(m.sickStreak, fallbackAfter-1) &&
			in(m.failStreak, applyFallbackAfter-1) && in(m.backoff, 2) && in(m.holdEpochs, m.backoff) &&
			in(m.healthyStreak, reengageAfter)
		if m.mode == ModeFallback {
			ok = ok && m.sickStreak == 0 && m.failStreak == 0 && m.backoff == 0 && !m.haveRequested
		} else {
			ok = ok && m.healthyStreak == 0
		}
		if m.applyOK {
			ok = ok && m.failStreak == 0 && m.backoff == 0 && m.holdEpochs == 0
		}
		if !ok {
			w.fail(r, c, "state out of bounds: %+v", m)
		}
	}
}
