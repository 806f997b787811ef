package serve

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// This file implements the engine's pressure controller: it folds the load
// signals the engine already maintains — admission-queue occupancy, shed
// outcomes, workspace saturation, and (optionally) the execution-latency p99
// — into one of four discrete pressure tiers, and each tier activates an
// explicit, observable degraded-mode policy:
//
//   - stale-while-revalidate: radius-invalidated cache entries parked in the
//     stale arena (see stale.go) are served zero-copy with Degraded ==
//     DegradedStale while a background singleflight recomputes them;
//   - auto-clamped budgets: per-tier caps on the random-walk budget
//     (core.OptionsContext.WalkScale), per-query parallelism and sweep width,
//     with the accuracy contract stamped into the response (Degraded ==
//     DegradedClamped, effective knobs echoed in Response.Effective);
//   - retry/backoff: shed queries return an *OverloadedError carrying a
//     Retry-After estimate derived from the queue's drain time.
//
// Every signal read and tier computation is atomic and allocation-free, so an
// engine running at PressureNominal pays nothing on the query hot path beyond
// a few atomic loads — the cache-hit and execution allocation guards hold
// with the controller enabled.

// PressureLevel is a discrete overload tier.  Levels are ordered: a higher
// tier activates strictly more aggressive shedding policies.
type PressureLevel int32

const (
	// PressureNominal: no degraded-mode policy active.
	PressureNominal PressureLevel = iota
	// PressureElevated: the engine is busy; stale serving turns on, budgets
	// stay untouched.
	PressureElevated
	// PressureOverloaded: sustained queueing or shedding; walk budgets,
	// parallelism and sweep width clamp to the Overloaded tier policy.
	PressureOverloaded
	// PressureCritical: the engine is drowning; the most aggressive clamps
	// apply.
	PressureCritical

	numPressureLevels = 4
)

// String returns the tier's metric label.
func (l PressureLevel) String() string {
	switch l {
	case PressureNominal:
		return "nominal"
	case PressureElevated:
		return "elevated"
	case PressureOverloaded:
		return "overloaded"
	case PressureCritical:
		return "critical"
	default:
		return fmt.Sprintf("level-%d", int32(l))
	}
}

// TierPolicy is the degraded-mode policy one pressure tier activates.  The
// zero value applies no policy (the Nominal behaviour).
type TierPolicy struct {
	// WalkScale, when in (0, 1), scales every execution's analysis-derived
	// random-walk budget down to ceil(scale·nr).  The clamp is deterministic
	// — bit-identical results for a fixed (options, scale, seed) at any
	// parallelism — but voids the (d, εr, δ) guarantee, so clamped responses
	// are labeled Degraded == DegradedClamped and never populate the result
	// cache.  0 (or >= 1) leaves budgets untouched.
	WalkScale float64
	// MaxParallelism, when > 0, caps the per-query parallelism resolved for
	// executions under this tier.  Parallelism never changes results, so this
	// cap is NOT labeled degraded — it only trades per-query latency for
	// fairness under load.
	MaxParallelism int
	// MaxSweepK, when > 0, bounds requested sweeps to the k best
	// degree-normalized nodes under this tier (cluster.SweepK instead of the
	// full cluster.Sweep).  A bounded sweep is a different answer than the
	// full sweep, so it is labeled Degraded == DegradedClamped and skips the
	// cache.
	MaxSweepK int
	// ServeStale serves radius-invalidated cache entries from the stale arena
	// (labeled Degraded == DegradedStale, Epoch reporting the entry's
	// pre-update epoch) while a background singleflight recomputes them.
	ServeStale bool
}

// active reports whether the policy clamps or degrades anything.
func (p TierPolicy) active() bool {
	return (p.WalkScale > 0 && p.WalkScale < 1) || p.MaxParallelism > 0 || p.MaxSweepK > 0 || p.ServeStale
}

// Default pressure-controller thresholds and policies (see PressureConfig).
const (
	defaultElevatedAt   = 0.50
	defaultOverloadedAt = 0.75
	defaultCriticalAt   = 0.90
	defaultSignalEWMA   = 0.20
	defaultStaleFrac    = 0.125 // 1/8 of Config.CacheBytes

	// Shed-rate thresholds: the smoothed fraction of admission attempts shed
	// that forces a tier even when queue occupancy alone wouldn't.
	shedElevatedAt   = 0.05
	shedOverloadedAt = 0.20
	shedCriticalAt   = 0.50

	defaultRetryAfterFloor = 50 * time.Millisecond
	defaultRetryAfterCeil  = 5 * time.Second
	// retryAfterFallbackMean seeds the drain estimate before any execution
	// has been measured.
	retryAfterFallbackMean = 25 * time.Millisecond
)

// PressureConfig tunes the pressure controller.  The zero value enables the
// controller with the default thresholds and tier policies; set Disabled to
// recover the pre-controller behaviour (binary shed only, no stale arena, no
// clamps, plain ErrOverloaded).
type PressureConfig struct {
	// Disabled turns the controller (and the stale arena) off entirely.
	Disabled bool
	// ElevatedAt / OverloadedAt / CriticalAt are the smoothed admission-queue
	// occupancy fractions (0..1 of Config.QueueDepth) at which each tier
	// engages.  0 means the default (0.50 / 0.75 / 0.90).
	ElevatedAt   float64
	OverloadedAt float64
	CriticalAt   float64
	// SignalEWMA is the smoothing factor α ∈ (0, 1] applied to the occupancy
	// and shed-rate signals; the controller reacts at a time constant of
	// roughly 1/α admissions.  0 means 0.20.
	SignalEWMA float64
	// LatencyBudget, when > 0, is the execution-latency p99 budget: while the
	// measured p99 exceeds it the controller holds the tier at least at
	// Elevated even if the queue looks calm (slow queries are their own form
	// of pressure).  0 ignores latency.
	LatencyBudget time.Duration
	// Elevated / Overloaded / Critical are the per-tier policies.  A
	// zero-valued tier adopts its default policy; to make a tier an explicit
	// no-op, set Disabled instead (tiers are only consulted above Nominal).
	Elevated   TierPolicy
	Overloaded TierPolicy
	Critical   TierPolicy
	// StaleFraction is the share of Config.CacheBytes carved out for the
	// stale arena; the result cache keeps the remainder, so stale entries
	// always count inside the configured cache budget.  0 means 1/8; negative
	// disables the arena (stale-while-revalidate never engages).
	StaleFraction float64
	// RetryAfterFloor / RetryAfterCeil clamp the Retry-After drain estimate
	// attached to shed queries.  Zero means 50ms / 5s.
	RetryAfterFloor time.Duration
	RetryAfterCeil  time.Duration
}

// withDefaults resolves the zero fields of c.
func (c PressureConfig) withDefaults() PressureConfig {
	if c.ElevatedAt <= 0 {
		c.ElevatedAt = defaultElevatedAt
	}
	if c.OverloadedAt <= 0 {
		c.OverloadedAt = defaultOverloadedAt
	}
	if c.CriticalAt <= 0 {
		c.CriticalAt = defaultCriticalAt
	}
	if c.SignalEWMA <= 0 || c.SignalEWMA > 1 {
		c.SignalEWMA = defaultSignalEWMA
	}
	if !c.Elevated.active() {
		c.Elevated = TierPolicy{ServeStale: true}
	}
	if !c.Overloaded.active() {
		c.Overloaded = TierPolicy{ServeStale: true, WalkScale: 0.5, MaxParallelism: 2, MaxSweepK: 256}
	}
	if !c.Critical.active() {
		c.Critical = TierPolicy{ServeStale: true, WalkScale: 0.25, MaxParallelism: 1, MaxSweepK: 64}
	}
	if c.StaleFraction == 0 {
		c.StaleFraction = defaultStaleFrac
	}
	if c.RetryAfterFloor <= 0 {
		c.RetryAfterFloor = defaultRetryAfterFloor
	}
	if c.RetryAfterCeil <= 0 {
		c.RetryAfterCeil = defaultRetryAfterCeil
	}
	if c.RetryAfterCeil < c.RetryAfterFloor {
		c.RetryAfterCeil = c.RetryAfterFloor
	}
	return c
}

// policy returns the tier's policy (the zero policy at Nominal).
func (c *PressureConfig) policy(l PressureLevel) TierPolicy {
	switch l {
	case PressureElevated:
		return c.Elevated
	case PressureOverloaded:
		return c.Overloaded
	case PressureCritical:
		return c.Critical
	default:
		return TierPolicy{}
	}
}

// pressureController folds load observations into the current tier.  All
// state is atomic; observations and reads are allocation-free.
type pressureController struct {
	cfg PressureConfig

	// occ and shed hold the smoothed occupancy fraction and shed rate as
	// math.Float64bits; level mirrors the last computed tier so policy reads
	// on the execution path are one atomic load.
	occ   atomic.Uint64
	shed  atomic.Uint64
	level atomic.Int32

	// wsSat and p99Over latch the most recent secondary-signal observations
	// (workspace saturation, latency budget exceeded) so that retiers driven
	// by other signals — a shed observation, say — do not forget them.
	wsSat   atomic.Bool
	p99Over atomic.Bool

	// transitions counts tier changes; tierEntered counts entries into each
	// tier (both for the soak harness's monotonicity checks).
	transitions atomic.Int64
	tierEntered [numPressureLevels]atomic.Int64
}

func newPressureController(cfg PressureConfig) *pressureController {
	return &pressureController{cfg: cfg}
}

// fold updates one EWMA signal (stored as float bits) with a CAS loop and
// returns the new smoothed value.
func (p *pressureController) fold(sig *atomic.Uint64, sample float64) float64 {
	alpha := p.cfg.SignalEWMA
	for {
		oldBits := sig.Load()
		sm := alpha*sample + (1-alpha)*math.Float64frombits(oldBits)
		if sig.CompareAndSwap(oldBits, math.Float64bits(sm)) {
			return sm
		}
	}
}

// observeOccupancy folds one admission-queue occupancy sample (0..1) into the
// occupancy EWMA and recomputes the tier.  wsSaturated and p99Over are the
// secondary signals: either holds the tier at least at Elevated.
func (p *pressureController) observeOccupancy(occ float64, wsSaturated, p99Over bool) PressureLevel {
	p.wsSat.Store(wsSaturated)
	p.p99Over.Store(p99Over)
	o := p.fold(&p.occ, occ)
	return p.retier(o, math.Float64frombits(p.shed.Load()), wsSaturated, p99Over)
}

// observeShed folds one admission outcome (shed or admitted) into the
// shed-rate EWMA and recomputes the tier.
func (p *pressureController) observeShed(shed bool) PressureLevel {
	s := 0.0
	if shed {
		s = 1
	}
	sr := p.fold(&p.shed, s)
	return p.retier(math.Float64frombits(p.occ.Load()), sr, p.wsSat.Load(), p.p99Over.Load())
}

// retier maps the smoothed signals to a tier and records transitions.
func (p *pressureController) retier(occ, shedRate float64, wsSaturated, p99Over bool) PressureLevel {
	c := &p.cfg
	lvl := PressureNominal
	switch {
	case occ >= c.CriticalAt || shedRate >= shedCriticalAt:
		lvl = PressureCritical
	case occ >= c.OverloadedAt || shedRate >= shedOverloadedAt:
		lvl = PressureOverloaded
	case occ >= c.ElevatedAt || shedRate >= shedElevatedAt || wsSaturated || p99Over:
		lvl = PressureElevated
	}
	old := p.level.Swap(int32(lvl))
	if old != int32(lvl) {
		p.transitions.Add(1)
		p.tierEntered[lvl].Add(1)
	}
	return lvl
}

// current returns the last computed tier without folding a new observation.
func (p *pressureController) current() PressureLevel {
	return PressureLevel(p.level.Load())
}

// PressureLevel reports the controller's current tier (PressureNominal when
// the controller is disabled).
func (e *Engine) PressureLevel() PressureLevel {
	if e.pressure == nil {
		return PressureNominal
	}
	return e.pressure.current()
}

// activePolicy resolves the degraded-mode policy for the current tier (the
// zero policy when the controller is disabled or the tier is Nominal).
func (e *Engine) activePolicy() TierPolicy {
	p := e.pressure
	if p == nil {
		return TierPolicy{}
	}
	return p.cfg.policy(p.current())
}

// queueOccupancy is the admission-queue occupancy fraction, counting queries
// waiting in the batching window against the same bound admission control
// uses.
func (e *Engine) queueOccupancy() float64 {
	depth := len(e.queue)
	if e.batch != nil {
		depth += int(e.batch.pending.Load())
	}
	return float64(depth) / float64(e.cfg.QueueDepth)
}

// observePressure folds one request arrival into the controller's occupancy
// signal.  Called once per Do; allocation-free.
func (e *Engine) observePressure() {
	p := e.pressure
	if p == nil {
		return
	}
	// Workspace saturation: every execution slot holds a pooled workspace, so
	// wsOut == Workers means the engine is computing at full width.
	wsSaturated := e.wsOut.Load() >= int64(e.cfg.Workers)
	p99Over := false
	if b := p.cfg.LatencyBudget; b > 0 {
		p99Over = e.metrics.latency.quantileMS(0.99) > float64(b.Nanoseconds())/1e6
	}
	p.observeOccupancy(e.queueOccupancy(), wsSaturated, p99Over)
}

// observeAdmission folds one admission outcome into the shed-rate signal.
func (e *Engine) observeAdmission(shed bool) {
	if e.pressure != nil {
		e.pressure.observeShed(shed)
	}
}

// RetryAfterSeconds converts a drain estimate into the whole-seconds form an
// HTTP Retry-After header carries: rounded up and floored at 1 second.  The
// floor matters — under light load the drain estimate can be tens of
// milliseconds, which integer-truncates to "Retry-After: 0" and reads to
// clients as "retry immediately", defeating the backoff entirely.
func RetryAfterSeconds(d time.Duration) int64 {
	if d <= time.Second {
		return 1
	}
	return int64((d + time.Second - 1) / time.Second)
}

// DrainEstimate reports how long a shed caller should back off right now: the
// time for the current backlog to drain through the workers at the measured
// mean execution latency, clamped to the configured Retry-After window.  It
// is safe to call on an engine whose pressure controller is disabled (the
// default clamp window applies).  Shed queries carry it as
// OverloadedError.RetryAfter, and it is exported as Snapshot.DrainEstimateMS
// and hkpr_serve_drain_estimate_seconds so operators and clients can read the
// backlog without being shed first.
func (e *Engine) DrainEstimate() time.Duration {
	m := e.metrics
	mean := retryAfterFallbackMean
	if n := m.latency.count.Load(); n > 0 {
		mean = time.Duration(m.latency.sum.Load() / n)
		if mean <= 0 {
			mean = retryAfterFallbackMean
		}
	}
	depth := int64(len(e.queue))
	if e.batch != nil {
		depth += e.batch.pending.Load()
	}
	workers := int64(e.cfg.Workers)
	est := time.Duration((depth + workers) / workers * int64(mean))
	floor, ceil := defaultRetryAfterFloor, defaultRetryAfterCeil
	if e.pressure != nil {
		floor, ceil = e.pressure.cfg.RetryAfterFloor, e.pressure.cfg.RetryAfterCeil
	}
	if est < floor {
		est = floor
	}
	if est > ceil {
		est = ceil
	}
	return est
}

// OverloadedError is the shed error produced while the pressure controller is
// active: errors.Is(err, ErrOverloaded) still matches, and RetryAfter carries
// the controller's drain estimate (surfaced as the HTTP Retry-After header by
// cmd/hkprserver and honored by hkprquery's backoff).
type OverloadedError struct {
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("serve: admission queue full (retry after %s)", e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) match, so existing callers keep
// working unchanged.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }
