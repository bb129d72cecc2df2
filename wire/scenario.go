package wire

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/datamgmt"
	"repro/internal/exec"
	"repro/internal/montage"
	"repro/internal/policy"
	"repro/internal/units"
)

// Scenario is the v2 wire schema: one declarative, versioned document
// describing a complete simulation scenario.  The zero value of every
// optional section reproduces the paper's baseline (regular mode, full
// parallelism, on-demand billing, 10 Mbps, Amazon 2008 rates, reliable
// capacity); a section is only needed for the knobs it turns.
//
// POST /v2/run consumes exactly this document, montagesim -scenario
// reads it from a file, SweepRequest sweeps any of its paths, and
// result documents echo it back normalized (defaults filled in) so a
// response is always re-POSTable.
type Scenario struct {
	// Version must be 2.  An explicit version field is the upgrade
	// contract: future schema changes bump it instead of silently
	// reinterpreting old documents.
	Version int `json:"version"`
	// Workflow selects what runs.
	Workflow WorkflowSection `json:"workflow"`
	// Fleet sizes the processor pool and its reliable/spot split.
	Fleet *FleetSection `json:"fleet,omitempty"`
	// Storage picks the data-management model and the user<->cloud link.
	Storage *StorageSection `json:"storage,omitempty"`
	// Pricing picks the CPU charging model and the fee schedule.
	Pricing *PricingSection `json:"pricing,omitempty"`
	// Spot describes the spot market the revocable sub-pool rents from.
	Spot *SpotSection `json:"spot,omitempty"`
	// Recovery decides how preempted tasks resume.
	Recovery *RecoverySection `json:"recovery,omitempty"`
	// Policies names the scheduling and recovery policies, one per
	// decision point.  Omitted (or empty) slots select the historical
	// defaults, so older documents resolve unchanged.
	Policies *PoliciesSection `json:"policies,omitempty"`
	// Trace opts the run into the flight recorder: the result document
	// carries the event timeline and a critical-path summary.  Tracing
	// is a pure observation knob -- it never changes what the run
	// computes -- so it is deliberately excluded from CanonicalRunKeyV2;
	// traced runs bypass the result cache instead of polluting it with
	// timeline-bearing bodies.
	//repro:nokey trace — pure observer; traced runs bypass the result cache instead of feeding the key
	Trace bool `json:"trace,omitempty"`
}

// WorkflowSection selects the workload: a preset by name, or a custom
// mosaic by size.
type WorkflowSection struct {
	// Name selects a preset: 1deg, 2deg or 4deg (the full montage-Ndeg
	// names are accepted too).  Empty selects a custom mosaic.
	Name string `json:"name,omitempty"`
	// Degrees sizes a custom mosaic when Name is empty.
	Degrees float64 `json:"degrees,omitempty"`
	// CCR, when positive, recalibrates the workflow's communication-to-
	// computation ratio at the reference bandwidth -- the v2 form of the
	// paper's Fig. 11 sensitivity axis, sweepable like any other path.
	CCR float64 `json:"ccr,omitempty"`
}

// FleetSection sizes the compute fleet.
type FleetSection struct {
	// Processors provisioned; 0 means enough for full parallelism.
	Processors int `json:"processors,omitempty"`
	// Reliable carves an on-demand sub-pool out of the fleet: never
	// reclaimed, billed at the full rate, hosting the critical-path
	// tasks.  The remaining processors are the revocable spot sub-pool.
	Reliable int `json:"reliable,omitempty"`
}

// StorageSection picks the data-management model and the link.
type StorageSection struct {
	// Mode is remote-io, regular or cleanup; empty means regular.
	Mode string `json:"mode,omitempty"`
	// BandwidthMbps is the user<->cloud link speed; 0 means the paper's
	// 10 Mbps.
	BandwidthMbps float64 `json:"bandwidth_mbps,omitempty"`
}

// PricingSection picks the charging model and overrides the fee
// schedule.  A zero rate keeps the Amazon 2008 default for that rate.
type PricingSection struct {
	// Billing is provisioned or on-demand; empty means on-demand.
	Billing string `json:"billing,omitempty"`
	// Rate overrides; 0 keeps the paper's Amazon 2008 value.
	CPUPerHour        float64 `json:"cpu_per_hour,omitempty"`
	StoragePerGBMonth float64 `json:"storage_per_gb_month,omitempty"`
	TransferInPerGB   float64 `json:"transfer_in_per_gb,omitempty"`
	TransferOutPerGB  float64 `json:"transfer_out_per_gb,omitempty"`
	// Granularity is per-second (the paper's normalization) or per-hour
	// (what 2008 EC2 actually billed).
	Granularity string `json:"granularity,omitempty"`
}

// SpotSection is the spot market: the knobs of the seeded per-instance
// reclaim sampling and the discount bought by accepting it.
type SpotSection struct {
	// RatePerHour is each spot instance's reclaim intensity; 0 disables
	// revocations (useful to price a mixed fleet under a calm market).
	RatePerHour float64 `json:"rate_per_hour,omitempty"`
	// WarningSeconds is the reclaim notice lead; 0 defaults to EC2's
	// 120 s when revocations are enabled.
	WarningSeconds float64 `json:"warning_seconds,omitempty"`
	// DowntimeSeconds is how long reclaimed capacity stays gone; 0
	// defaults to 600 s when revocations are enabled.
	DowntimeSeconds float64 `json:"downtime_seconds,omitempty"`
	// Seed drives the deterministic revocation sampling.
	Seed int64 `json:"seed,omitempty"`
	// Discount is the fraction taken off the on-demand CPU rate for spot
	// capacity, in [0, 1).
	Discount float64 `json:"discount,omitempty"`
}

// RecoverySection is the checkpoint/restart policy for preempted tasks.
type RecoverySection struct {
	// CheckpointSeconds enables checkpoint/restart with this interval of
	// useful compute between checkpoints; 0 re-runs preempted tasks from
	// scratch.
	CheckpointSeconds float64 `json:"checkpoint_seconds,omitempty"`
	// CheckpointOverheadSeconds is the wall-clock cost of writing one
	// checkpoint.
	CheckpointOverheadSeconds float64 `json:"checkpoint_overhead_seconds,omitempty"`
	// CheckpointBytes is the size of one checkpoint image: each write
	// moves this much data into cloud storage (charged as storage
	// occupancy and inbound transfer) and each restore reads it back.
	CheckpointBytes float64 `json:"checkpoint_bytes,omitempty"`
}

// PoliciesSection names one policy per scheduling/recovery decision
// point, each a key into the corresponding registry.  Empty slots mean
// the historical defaults (rank placement, deterministic victims,
// interval checkpointing, static sizing), so a document written before
// this section existed resolves to byte-identical results.
type PoliciesSection struct {
	// Placement decides which ready tasks claim the reliable slots of a
	// mixed fleet: rank (default), heft or fifo.
	Placement string `json:"placement,omitempty"`
	// Victim decides which running spot attempt a reclaim kills:
	// deterministic (default), cost-aware or least-progress.
	Victim string `json:"victim,omitempty"`
	// Checkpoint spaces a running attempt's snapshots: interval
	// (default), adaptive (Young/Daly) or risk (warning-window only).
	Checkpoint string `json:"checkpoint,omitempty"`
	// Sizing decides the reliable/spot split: static (default), quarter
	// or half.
	Sizing string `json:"sizing,omitempty"`
}

// bundle converts the section to its core policy value.
func (p PoliciesSection) bundle() policy.Bundle {
	return policy.Bundle{
		Placement:  p.Placement,
		Victim:     p.Victim,
		Checkpoint: p.Checkpoint,
		Sizing:     p.Sizing,
	}
}

// maxRequestDegrees caps custom mosaic sizes on the wire.  Task count
// grows with sky area; the paper tops out at 4 degrees and the
// whole-sky tilings at 6, while an uncapped request could ask one cheap
// POST to materialize a multi-million-task DAG.
const maxRequestDegrees = 20

// Defaults filled into a spot section with revocations enabled.
const (
	defaultSpotWarningSeconds  = 120 // EC2's two-minute reclaim notice
	defaultSpotDowntimeSeconds = 600
)

// resolve turns the workflow section into a concrete spec.
func (w WorkflowSection) resolve() (montage.Spec, error) {
	var spec montage.Spec
	switch {
	case w.Name != "" && w.Degrees != 0:
		return montage.Spec{}, fmt.Errorf("wire: scenario names workflow %q and degrees %v; use one", w.Name, w.Degrees)
	case w.Name != "":
		switch strings.ToLower(w.Name) {
		case "1deg", "montage-1deg":
			spec = montage.OneDegree()
		case "2deg", "montage-2deg":
			spec = montage.TwoDegree()
		case "4deg", "montage-4deg":
			spec = montage.FourDegree()
		default:
			return montage.Spec{}, fmt.Errorf("wire: unknown workflow %q (want 1deg, 2deg or 4deg)", w.Name)
		}
	case w.Degrees < 0:
		return montage.Spec{}, fmt.Errorf("wire: negative degrees %v", w.Degrees)
	case w.Degrees > maxRequestDegrees:
		return montage.Spec{}, fmt.Errorf("wire: %v-degree mosaic exceeds the %v-degree request limit", w.Degrees, float64(maxRequestDegrees))
	case w.Degrees > 0:
		spec = montage.FromDegrees(w.Degrees, int64(roundDegrees(w.Degrees)))
	default:
		return montage.Spec{}, fmt.Errorf("wire: scenario selects no workflow (set workflow.name or workflow.degrees)")
	}
	switch {
	case w.CCR < 0:
		return montage.Spec{}, fmt.Errorf("wire: negative CCR %v", w.CCR)
	case w.CCR > 0:
		spec.TargetCCR = w.CCR
	}
	return spec, nil
}

// Resolve turns the scenario into a concrete spec and plan, rejecting
// anything malformed.  The returned plan is canonical (defaults filled
// in), so equal scenarios resolve to equal values and share cache keys.
func (s Scenario) Resolve() (montage.Spec, core.Plan, error) {
	fail := func(err error) (montage.Spec, core.Plan, error) { return montage.Spec{}, core.Plan{}, err }
	if s.Version != Version {
		return fail(fmt.Errorf("wire: unsupported scenario version %d (this build speaks version %d)", s.Version, Version))
	}
	spec, err := s.Workflow.resolve()
	if err != nil {
		return fail(err)
	}
	plan := core.DefaultPlan()

	if st := s.Storage; st != nil {
		if st.Mode != "" {
			m, err := datamgmt.ParseMode(st.Mode)
			if err != nil {
				return fail(err)
			}
			plan.Mode = m
		}
		if st.BandwidthMbps < 0 {
			return fail(fmt.Errorf("wire: negative bandwidth %v Mbps", st.BandwidthMbps))
		}
		if st.BandwidthMbps > 0 {
			plan.Bandwidth = units.Mbps(st.BandwidthMbps)
		}
	}

	if pr := s.Pricing; pr != nil {
		switch strings.ToLower(pr.Billing) {
		case "", "on-demand", "ondemand":
			plan.Billing = core.OnDemand
		case "provisioned":
			plan.Billing = core.Provisioned
		default:
			return fail(fmt.Errorf("wire: unknown billing %q (want provisioned or on-demand)", pr.Billing))
		}
		// A fixed-order list, not a map: with two negative rates the
		// reported one must not depend on map iteration order.
		rates := []struct {
			name string
			v    float64
		}{
			{"cpu_per_hour", pr.CPUPerHour},
			{"storage_per_gb_month", pr.StoragePerGBMonth},
			{"transfer_in_per_gb", pr.TransferInPerGB},
			{"transfer_out_per_gb", pr.TransferOutPerGB},
		}
		for _, r := range rates {
			if r.v < 0 {
				return fail(fmt.Errorf("wire: negative pricing rate %s = %v", r.name, r.v))
			}
		}
		fees := cost.Amazon2008()
		if pr.CPUPerHour > 0 {
			fees.CPUPerHour = units.Money(pr.CPUPerHour)
		}
		if pr.StoragePerGBMonth > 0 {
			fees.StoragePerGBMonth = units.Money(pr.StoragePerGBMonth)
		}
		if pr.TransferInPerGB > 0 {
			fees.TransferInPerGB = units.Money(pr.TransferInPerGB)
		}
		if pr.TransferOutPerGB > 0 {
			fees.TransferOutPerGB = units.Money(pr.TransferOutPerGB)
		}
		switch strings.ToLower(pr.Granularity) {
		case "", "per-second":
			fees.Granularity = cost.PerSecond
		case "per-hour":
			fees.Granularity = cost.PerHour
		default:
			return fail(fmt.Errorf("wire: unknown billing granularity %q (want per-second or per-hour)", pr.Granularity))
		}
		plan.Pricing = fees
	}

	reliable := 0
	if f := s.Fleet; f != nil {
		if f.Processors < 0 {
			return fail(fmt.Errorf("wire: negative processor count %d", f.Processors))
		}
		if f.Reliable < 0 {
			return fail(fmt.Errorf("wire: negative reliable sub-pool %d", f.Reliable))
		}
		plan.Processors = f.Processors
		reliable = f.Reliable
	}

	// A zero-valued spot section is identical to an absent one (reliable
	// capacity): an axis sweeping spot.rate_per_hour down to 0 must
	// resolve, and misspelled knobs are already caught by the strict
	// decoder, not by an emptiness check.
	var spot SpotSection
	if sp := s.Spot; sp != nil {
		switch {
		case sp.RatePerHour < 0:
			return fail(fmt.Errorf("wire: negative spot rate %v/hour", sp.RatePerHour))
		case sp.WarningSeconds < 0:
			return fail(fmt.Errorf("wire: negative spot warning %v s", sp.WarningSeconds))
		case sp.DowntimeSeconds < 0:
			return fail(fmt.Errorf("wire: negative spot downtime %v s", sp.DowntimeSeconds))
		case sp.Discount < 0 || sp.Discount >= 1:
			return fail(fmt.Errorf("wire: spot discount %v outside [0,1)", sp.Discount))
		}
		spot = *sp
	}

	// With an explicit pool size the fleet split is decidable now; a
	// malformed split must cost the caller a 400, not a 500 at run time
	// (a zero pool defers to the run-time check, which knows the
	// workflow's full parallelism).
	if plan.Processors > 0 {
		if reliable > plan.Processors {
			return fail(fmt.Errorf("wire: reliable sub-pool %d exceeds the %d-processor fleet", reliable, plan.Processors))
		}
		if spot.RatePerHour > 0 && reliable == plan.Processors {
			return fail(fmt.Errorf("wire: spot reclaims enabled but the %d-processor fleet has no spot capacity", plan.Processors))
		}
	}

	if s.Spot != nil || reliable > 0 {
		warning := spot.WarningSeconds
		downtime := spot.DowntimeSeconds
		if spot.RatePerHour > 0 {
			if warning == 0 {
				warning = defaultSpotWarningSeconds
			}
			if downtime == 0 {
				downtime = defaultSpotDowntimeSeconds
			}
		}
		plan.Spot = core.SpotPlan{
			RatePerHour: spot.RatePerHour,
			Warning:     units.Duration(warning),
			Downtime:    units.Duration(downtime),
			Seed:        spot.Seed,
			Discount:    spot.Discount,
			OnDemand:    reliable,
		}
	}

	// Likewise, checkpoint_seconds swept to 0 disables checkpointing --
	// the documented meaning of the zero value -- provided no orphaned
	// overhead or image size remains.
	if rc := s.Recovery; rc != nil {
		switch {
		case rc.CheckpointSeconds < 0:
			return fail(fmt.Errorf("wire: negative checkpoint interval %v s", rc.CheckpointSeconds))
		case rc.CheckpointOverheadSeconds < 0:
			return fail(fmt.Errorf("wire: negative checkpoint overhead %v s", rc.CheckpointOverheadSeconds))
		case rc.CheckpointBytes < 0:
			return fail(fmt.Errorf("wire: negative checkpoint size %v bytes", rc.CheckpointBytes))
		case rc.CheckpointSeconds == 0 && (rc.CheckpointOverheadSeconds > 0 || rc.CheckpointBytes > 0):
			return fail(fmt.Errorf("wire: checkpoint overhead/bytes set without an interval"))
		}
		if rc.CheckpointSeconds > 0 {
			plan.Recovery = exec.Recovery{
				Checkpoint: true,
				Interval:   units.Duration(rc.CheckpointSeconds),
				Overhead:   units.Duration(rc.CheckpointOverheadSeconds),
				Bytes:      units.BytesOf(rc.CheckpointBytes),
			}
		}
	}

	// Policy names must be registered: an unknown name is the caller's
	// typo and costs a 400 here, not a 500 at run time.
	if pol := s.Policies; pol != nil {
		plan.Policies = pol.bundle()
		if err := plan.Policies.Validate(); err != nil {
			return fail(fmt.Errorf("wire: %w", err))
		}
	}

	return spec, plan.Canonical(), nil
}

// roundDegrees is a custom mosaic's generation seed: its size rounded
// to whole degrees.  Resolve and EchoScenario both derive it, so the
// echo of a custom run resolves to the same spec.
func roundDegrees(d float64) float64 {
	if d < 0 {
		return 0
	}
	return float64(int64(d + 0.5))
}

// EchoScenario reconstructs the canonical v2 scenario for a resolved
// (spec, plan) pair: every section explicit, defaults filled in.  The
// result is what v2 documents echo back, and it is re-POSTable --
// resolving the echo reproduces the same spec and plan.
func EchoScenario(spec montage.Spec, plan core.Plan) Scenario {
	p := plan.Canonical()
	s := Scenario{Version: Version}
	base := montage.Spec{}
	switch spec.Name {
	case montage.OneDegree().Name:
		s.Workflow.Name = spec.Name
		base = montage.OneDegree()
	case montage.TwoDegree().Name:
		s.Workflow.Name = spec.Name
		base = montage.TwoDegree()
	case montage.FourDegree().Name:
		s.Workflow.Name = spec.Name
		base = montage.FourDegree()
	default:
		s.Workflow.Degrees = spec.Degrees
		base = montage.FromDegrees(spec.Degrees, int64(roundDegrees(spec.Degrees)))
	}
	if spec.TargetCCR != base.TargetCCR {
		s.Workflow.CCR = spec.TargetCCR
	}
	if p.Processors != 0 || p.Spot.OnDemand != 0 {
		s.Fleet = &FleetSection{Processors: p.Processors, Reliable: p.Spot.OnDemand}
	}
	s.Storage = &StorageSection{
		Mode:          p.Mode.String(),
		BandwidthMbps: p.Bandwidth.BytesPerSecond() * 8 / 1e6,
	}
	s.Pricing = &PricingSection{
		Billing:           p.Billing.String(),
		CPUPerHour:        float64(p.Pricing.CPUPerHour),
		StoragePerGBMonth: float64(p.Pricing.StoragePerGBMonth),
		TransferInPerGB:   float64(p.Pricing.TransferInPerGB),
		TransferOutPerGB:  float64(p.Pricing.TransferOutPerGB),
		Granularity:       p.Pricing.Granularity.String(),
	}
	market := SpotSection{
		RatePerHour:     p.Spot.RatePerHour,
		WarningSeconds:  p.Spot.Warning.Seconds(),
		DowntimeSeconds: p.Spot.Downtime.Seconds(),
		Seed:            p.Spot.Seed,
		Discount:        p.Spot.Discount,
	}
	if market != (SpotSection{}) {
		s.Spot = &market
	}
	if p.Recovery.Checkpoint {
		s.Recovery = &RecoverySection{
			CheckpointSeconds:         p.Recovery.Interval.Seconds(),
			CheckpointOverheadSeconds: p.Recovery.Overhead.Seconds(),
			CheckpointBytes:           float64(p.Recovery.Bytes),
		}
	}
	// The default bundle is omitted rather than echoed: pre-policy
	// documents must echo byte-identically.
	if !p.Policies.IsDefault() {
		b := p.Policies.Canonical()
		s.Policies = &PoliciesSection{
			Placement:  b.Placement,
			Victim:     b.Victim,
			Checkpoint: b.Checkpoint,
			Sizing:     b.Sizing,
		}
	}
	return s
}
