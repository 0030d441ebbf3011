package serve

import (
	"time"

	"maya"
)

// control is the prediction control plane: the overload shedder, the
// predictor's circuit breaker and the stale-result cache, consulted
// in one fixed order by decide and fed back by settle. The live
// server (predictOne) goes through these two functions on the real
// clock; the package tests' virtual-time chaos harness drives the same
// two on an injected one, so it exercises the policy that ships.
type control struct {
	shed     *Shedder
	pbreaker *Breaker // guards Predict
	degrade  *degradeCache
}

// newControl builds the control plane on the given clock.
func newControl(shedTarget, shedInterval time.Duration, breakerThreshold int, breakerProbe time.Duration, staleSize int, now func() time.Time) *control {
	c := &control{
		shed:     NewShedder(shedTarget, shedInterval),
		pbreaker: NewBreaker("predict", breakerThreshold, breakerProbe),
		degrade:  newDegradeCache(staleSize),
	}
	c.shed.now, c.pbreaker.now, c.degrade.now = now, now, now
	return c
}

// verdict is what decide concluded for one arriving prediction.
type verdict int

const (
	// verdictAdmit sends the request on to execution; the caller owes
	// a settle once its outcome is known.
	verdictAdmit verdict = iota
	// verdictDegraded answers with the stale report in the decision.
	verdictDegraded
	// verdictShed refuses with 429: the shedder said no and the
	// identity has no stale cover.
	verdictShed
	// verdictRejected refuses with 503: the breaker is open and the
	// identity has no stale cover.
	verdictRejected
)

// decision is decide's answer. shed is the shedder's own verdict
// (ShedAdmit when the shedder let the request through, whatever the
// breaker then said) and est the queue wait it was based on; report
// and age are set for verdictDegraded.
type decision struct {
	verdict verdict
	shed    ShedVerdict
	est     time.Duration
	report  *maya.Report
	age     time.Duration
}

// decide runs the request-decision path for the prediction identity
// key: estimate the queue wait from depth — admitted, unfinished
// requests *including this one* — over workers; ask the shedder; on a
// refusal fall back to the stale cache or shed. Only then ask the
// breaker, falling back the same way — so a shed request never
// touches the breaker, and its rejection count and half-open probe
// slot move only for requests that would otherwise have run.
// remaining is the request's remaining deadline (0 = none known).
func (c *control) decide(key string, depth, workers int, remaining time.Duration) decision {
	d := decision{est: c.shed.EstimateWait(depth, workers)}
	d.shed = c.shed.Decide(d.est, remaining)
	switch {
	case d.shed != ShedAdmit:
		d.verdict = verdictShed
	case !c.pbreaker.Allow():
		d.verdict = verdictRejected
	default:
		return d
	}
	if rep, age, ok := c.degrade.get(key); ok {
		d.verdict, d.report, d.age = verdictDegraded, rep, age
	}
	return d
}

// settle closes an admitted request: the breaker observes the
// outcome — every admitted caller reports, coalescing followers
// included, and an aborted outcome releases a half-open probe slot so
// a dying caller cannot wedge the breaker — and a success refreshes
// the identity's stale entry.
func (c *control) settle(key string, rep *maya.Report, o breakerOutcome) {
	c.pbreaker.Observe(o)
	if o == breakerSuccess {
		c.degrade.put(key, rep)
	}
}
