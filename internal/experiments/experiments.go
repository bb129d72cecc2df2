// Package experiments is the reproduction harness: one constructor per
// table and figure in the paper's evaluation (§6), each returning typed
// rows plus renderable tables.  Registry names every experiment, these
// and the ablations and scenario studies beyond the paper; the
// montagesim CLI, the reprosrv daemon and the root benchmarks run them
// all through it.
//
// The paper's experiments:
//
//	CCRTable      -- the §6.3 CCR table
//	Fig4/5/6      -- Question 1 provisioning sweeps (1/2/4-degree)
//	Fig7/8/9      -- Question 2a data-management comparison
//	Fig10         -- CPU vs data-management cost summary
//	Fig11         -- CCR sensitivity sweep
//	Q2b           -- archive break-even analysis
//	Q3WholeSky    -- whole-sky campaign costing
//	Q3Store       -- store-vs-recompute horizons
package experiments

import (
	"context"
	"fmt"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/datamgmt"
	"repro/internal/montage"
	"repro/internal/report"
	"repro/internal/units"
)

// generate returns a preset workflow from the process-wide memo (grid
// points re-ask for the same presets constantly), failing loudly on
// generator bugs.  The result is shared and read-only.
func generate(spec montage.Spec) (*dag.Workflow, error) {
	w, err := montage.Cached(spec)
	if err != nil {
		return nil, fmt.Errorf("experiments: generate %s: %w", spec.Name, err)
	}
	return w, nil
}

// ---- E1: the CCR table ----

// CCRRow is one line of the §6.3 table.
type CCRRow struct {
	Workflow string
	Tasks    int
	CCR      float64
	PaperCCR float64
}

// CCRTableResult reproduces the communication-to-computation table.
type CCRTableResult struct {
	Bandwidth units.Bandwidth
	Rows      []CCRRow
}

// CCRTable computes the CCR of the three Montage workflows at the
// paper's 10 Mbps reference bandwidth.
func CCRTable(ctx context.Context) (CCRTableResult, error) {
	paper := map[string]float64{
		"montage-1deg": 0.053, "montage-2deg": 0.053, "montage-4deg": 0.045,
	}
	res := CCRTableResult{Bandwidth: units.Mbps(10)}
	rows, err := Sweep[montage.Spec, CCRRow]{
		Name:   "ccr-table",
		Points: montage.Presets(),
		Run: func(ctx context.Context, spec montage.Spec) (CCRRow, error) {
			w, err := generate(spec)
			if err != nil {
				return CCRRow{}, err
			}
			return CCRRow{
				Workflow: spec.Name,
				Tasks:    w.NumTasks(),
				CCR:      w.CCR(res.Bandwidth),
				PaperCCR: paper[spec.Name],
			}, nil
		},
	}.Do(ctx)
	if err != nil {
		return CCRTableResult{}, err
	}
	res.Rows = rows
	return res, nil
}

// Table renders the CCR table.
func (r CCRTableResult) Table() *report.Table {
	t := report.New(fmt.Sprintf("CCR table (B = %v) -- paper §6.3", r.Bandwidth),
		"workflow", "tasks", "ccr", "paper")
	for _, row := range r.Rows {
		t.MustAdd(row.Workflow, fmt.Sprint(row.Tasks),
			report.F(row.CCR, 3), report.F(row.PaperCCR, 3))
	}
	return t
}

// ---- E2-E4: Question 1 provisioning sweeps (Figs. 4-6) ----

// ProvisioningFigure is a Question-1 sweep for one workflow.
type ProvisioningFigure struct {
	Figure string
	Spec   montage.Spec
	Points []core.SweepPoint
}

// Fig4 sweeps the 1-degree workflow over 1..128 provisioned processors.
func Fig4(ctx context.Context) (ProvisioningFigure, error) {
	return provisioning(ctx, "Fig4", montage.OneDegree())
}

// Fig5 sweeps the 2-degree workflow.
func Fig5(ctx context.Context) (ProvisioningFigure, error) {
	return provisioning(ctx, "Fig5", montage.TwoDegree())
}

// Fig6 sweeps the 4-degree workflow.
func Fig6(ctx context.Context) (ProvisioningFigure, error) {
	return provisioning(ctx, "Fig6", montage.FourDegree())
}

func provisioning(ctx context.Context, figure string, spec montage.Spec) (ProvisioningFigure, error) {
	w, err := generate(spec)
	if err != nil {
		return ProvisioningFigure{}, err
	}
	points, err := core.ProvisioningSweepContext(ctx, w, core.GeometricProcessors(), core.DefaultPlan())
	if err != nil {
		return ProvisioningFigure{}, err
	}
	return ProvisioningFigure{Figure: figure, Spec: spec, Points: points}, nil
}

// CostTable renders the figure's top panel: cost components vs. pool
// size.
func (f ProvisioningFigure) CostTable() *report.Table {
	t := report.New(
		fmt.Sprintf("%s (top): execution costs of %s vs. provisioned processors", f.Figure, f.Spec.Name),
		"procs", "cpu$", "storage$", "storage$(cleanup)", "transfer$", "total$")
	for _, p := range f.Points {
		c := p.Result.Cost
		t.MustAdd(
			fmt.Sprint(p.Processors),
			report.F(c.CPU.Dollars(), 4),
			fmt.Sprintf("%.6f", c.Storage.Dollars()),
			fmt.Sprintf("%.6f", p.StorageCostCleanup.Dollars()),
			report.F(c.Transfer().Dollars(), 4),
			report.F(c.Total().Dollars(), 4),
		)
	}
	return t
}

// TimeTable renders the figure's bottom panel: execution time vs. pool
// size.
func (f ProvisioningFigure) TimeTable() *report.Table {
	t := report.New(
		fmt.Sprintf("%s (bottom): execution time of %s vs. provisioned processors", f.Figure, f.Spec.Name),
		"procs", "exec-time", "hours", "utilization")
	for _, p := range f.Points {
		m := p.Result.Metrics
		t.MustAdd(
			fmt.Sprint(p.Processors),
			m.ExecTime.String(),
			report.F(m.ExecTime.Hours(), 3),
			report.F(m.Utilization, 3),
		)
	}
	return t
}

// ---- E5-E7: Question 2a data-management comparison (Figs. 7-9) ----

// DataManagementFigure compares the three execution models for one
// workflow under on-demand billing at full parallelism.
type DataManagementFigure struct {
	Figure  string
	Spec    montage.Spec
	Results map[datamgmt.Mode]core.Result
}

// Fig7 compares modes on the 1-degree workflow.
func Fig7(ctx context.Context) (DataManagementFigure, error) {
	return dataManagement(ctx, "Fig7", montage.OneDegree())
}

// Fig8 compares modes on the 2-degree workflow.
func Fig8(ctx context.Context) (DataManagementFigure, error) {
	return dataManagement(ctx, "Fig8", montage.TwoDegree())
}

// Fig9 compares modes on the 4-degree workflow.
func Fig9(ctx context.Context) (DataManagementFigure, error) {
	return dataManagement(ctx, "Fig9", montage.FourDegree())
}

func dataManagement(ctx context.Context, figure string, spec montage.Spec) (DataManagementFigure, error) {
	w, err := generate(spec)
	if err != nil {
		return DataManagementFigure{}, err
	}
	results, err := core.CompareModesContext(ctx, w, core.DefaultPlan())
	if err != nil {
		return DataManagementFigure{}, err
	}
	return DataManagementFigure{Figure: figure, Spec: spec, Results: results}, nil
}

// StorageTable renders the figure's top panel: storage space-time per
// mode.
func (f DataManagementFigure) StorageTable() *report.Table {
	t := report.New(
		fmt.Sprintf("%s (top): storage used by %s per mode", f.Figure, f.Spec.Name),
		"mode", "gb-hours", "peak")
	for _, mode := range datamgmt.Modes() {
		m := f.Results[mode].Metrics
		t.MustAdd(mode.String(), report.F(m.GBHoursStorage(), 4), m.PeakStorage.String())
	}
	return t
}

// TransferTable renders the middle panel: data moved per direction.
func (f DataManagementFigure) TransferTable() *report.Table {
	t := report.New(
		fmt.Sprintf("%s (middle): data transfer of %s per mode", f.Figure, f.Spec.Name),
		"mode", "in", "out")
	for _, mode := range datamgmt.Modes() {
		m := f.Results[mode].Metrics
		t.MustAdd(mode.String(), m.BytesIn.String(), m.BytesOut.String())
	}
	return t
}

// CostTable renders the bottom panel: data-management dollar costs.
func (f DataManagementFigure) CostTable() *report.Table {
	t := report.New(
		fmt.Sprintf("%s (bottom): costs of %s per mode (excl. CPU)", f.Figure, f.Spec.Name),
		"mode", "storage$", "in$", "out$", "dm-total$")
	for _, mode := range datamgmt.Modes() {
		c := f.Results[mode].Cost
		t.MustAdd(mode.String(),
			fmt.Sprintf("%.6f", c.Storage.Dollars()),
			report.F(c.TransferIn.Dollars(), 4),
			report.F(c.TransferOut.Dollars(), 4),
			report.F(c.DataManagement().Dollars(), 4),
		)
	}
	return t
}

// ---- E8: Fig. 10, CPU vs data-management costs ----

// Fig10Row is one workflow's summary.
type Fig10Row struct {
	Workflow string
	CPUCost  units.Money
	DM       map[datamgmt.Mode]units.Money
	Total    map[datamgmt.Mode]units.Money
}

// Fig10Result summarizes CPU and DM costs across workflows and modes.
type Fig10Result struct {
	Rows []Fig10Row
}

// Fig10 runs all three workflows under all three modes with on-demand
// billing; the nine runs execute concurrently (three workflows through
// the sweep engine, three modes inside each).
func Fig10(ctx context.Context) (Fig10Result, error) {
	rows, err := Sweep[montage.Spec, Fig10Row]{
		Name:   "fig10",
		Points: montage.Presets(),
		Run: func(ctx context.Context, spec montage.Spec) (Fig10Row, error) {
			w, err := generate(spec)
			if err != nil {
				return Fig10Row{}, err
			}
			results, err := core.CompareModesContext(ctx, w, core.DefaultPlan())
			if err != nil {
				return Fig10Row{}, err
			}
			row := Fig10Row{
				Workflow: spec.Name,
				CPUCost:  results[datamgmt.Regular].Cost.CPU,
				DM:       make(map[datamgmt.Mode]units.Money, 3),
				Total:    make(map[datamgmt.Mode]units.Money, 3),
			}
			for mode, r := range results {
				row.DM[mode] = r.Cost.DataManagement()
				row.Total[mode] = r.Cost.Total()
			}
			return row, nil
		},
	}.Do(ctx)
	if err != nil {
		return Fig10Result{}, err
	}
	return Fig10Result{Rows: rows}, nil
}

// Table renders the Fig. 10 summary.
func (r Fig10Result) Table() *report.Table {
	t := report.New("Fig10: CPU and data-management costs per workflow and mode",
		"workflow", "cpu$", "dm$(remote)", "dm$(regular)", "dm$(cleanup)",
		"total$(remote)", "total$(regular)", "total$(cleanup)")
	for _, row := range r.Rows {
		t.MustAdd(row.Workflow,
			report.F(row.CPUCost.Dollars(), 2),
			report.F(row.DM[datamgmt.RemoteIO].Dollars(), 4),
			report.F(row.DM[datamgmt.Regular].Dollars(), 4),
			report.F(row.DM[datamgmt.Cleanup].Dollars(), 4),
			report.F(row.Total[datamgmt.RemoteIO].Dollars(), 2),
			report.F(row.Total[datamgmt.Regular].Dollars(), 2),
			report.F(row.Total[datamgmt.Cleanup].Dollars(), 2),
		)
	}
	return t
}

// ---- E9: Fig. 11, CCR sensitivity ----

// Fig11Result is the CCR sweep of the 1-degree workflow on 8 provisioned
// processors.
type Fig11Result struct {
	Spec   montage.Spec
	Procs  int
	Points []core.CCRPoint
}

// Fig11CCRs returns the swept ratios: the paper's measured 0.053 doubled
// up to ~3.4.
func Fig11CCRs() []float64 {
	return []float64{0.053, 0.106, 0.212, 0.424, 0.848, 1.696, 3.392}
}

// Fig11 reproduces the CCR sensitivity experiment.
func Fig11(ctx context.Context) (Fig11Result, error) {
	spec := montage.OneDegree()
	w, err := generate(spec)
	if err != nil {
		return Fig11Result{}, err
	}
	plan := core.DefaultPlan()
	plan.Processors = 8
	plan.Billing = core.Provisioned
	points, err := core.CCRSweepContext(ctx, w, Fig11CCRs(), plan)
	if err != nil {
		return Fig11Result{}, err
	}
	return Fig11Result{Spec: spec, Procs: 8, Points: points}, nil
}

// Table renders the Fig. 11 sweep.
func (r Fig11Result) Table() *report.Table {
	t := report.New(
		fmt.Sprintf("Fig11: costs of %s with changing CCR (%d provisioned procs)", r.Spec.Name, r.Procs),
		"ccr", "cpu$", "storage$", "storage$(cleanup)", "transfer$", "total$", "exec-time")
	for _, p := range r.Points {
		c := p.Result.Cost
		t.MustAdd(
			report.F(p.CCR, 3),
			report.F(c.CPU.Dollars(), 4),
			fmt.Sprintf("%.6f", c.Storage.Dollars()),
			fmt.Sprintf("%.6f", p.StorageCostCleanup.Dollars()),
			report.F(c.Transfer().Dollars(), 4),
			report.F(c.Total().Dollars(), 4),
			p.Result.Metrics.ExecTime.String(),
		)
	}
	return t
}

// ---- E10: Question 2b, archive break-even ----

// Q2bResult is the archive economics analysis.
type Q2bResult struct {
	Spec      montage.Spec
	Request   core.Result
	BreakEven archive.BreakEven
}

// Q2b measures a 2-degree request in regular mode (the paper's example)
// and computes the 2MASS-archive break-even request rate.
func Q2b(ctx context.Context) (Q2bResult, error) {
	spec := montage.TwoDegree()
	w, err := generate(spec)
	if err != nil {
		return Q2bResult{}, err
	}
	req, err := core.RunContext(ctx, w, core.DefaultPlan())
	if err != nil {
		return Q2bResult{}, err
	}
	be, err := archive.ComputeBreakEven(cost.Amazon2008(), archive.TwoMASSArchiveBytes, req.Cost)
	if err != nil {
		return Q2bResult{}, err
	}
	return Q2bResult{Spec: spec, Request: req, BreakEven: be}, nil
}

// Table renders the break-even analysis.
func (r Q2bResult) Table() *report.Table {
	t := report.New("Q2b: storing the 12 TB 2MASS archive on the cloud", "quantity", "value")
	be := r.BreakEven
	t.MustAdd("archive monthly storage", be.MonthlyStorageCost.String())
	t.MustAdd("archive one-time upload", be.OneTimeUploadCost.String())
	t.MustAdd(r.Spec.Name+" request (staged inputs)", be.CostPerRequestStaged.String())
	t.MustAdd(r.Spec.Name+" request (archived inputs)", be.CostPerRequestArchived.String())
	t.MustAdd("savings per request", be.SavingsPerRequest.String())
	t.MustAdd("break-even requests/month", report.F(be.RequestsPerMonth, 0))
	return t
}

// ---- E11/E12: Question 3 ----

// Q3WholeSkyResult prices mosaicking the entire sky.
type Q3WholeSkyResult struct {
	FourDeg archive.SkyCampaign
	SixDeg  archive.SkyCampaign
}

// Q3WholeSky prices the 3,900 x 4-degree tiling (and the 1,734 x
// 6-degree alternative) from measured per-request costs; the two tilings
// are measured concurrently.
func Q3WholeSky(ctx context.Context) (Q3WholeSkyResult, error) {
	type tiling struct {
		spec    montage.Spec
		mosaics int
	}
	campaigns, err := Sweep[tiling, archive.SkyCampaign]{
		Name: "q3-whole-sky",
		Points: []tiling{
			{montage.FourDegree(), archive.WholeSky4DegMosaics},
			{montage.FromDegrees(6, 6), archive.WholeSky6DegMosaics},
		},
		Run: func(ctx context.Context, tl tiling) (archive.SkyCampaign, error) {
			w, err := generate(tl.spec)
			if err != nil {
				return archive.SkyCampaign{}, err
			}
			r, err := core.RunContext(ctx, w, core.DefaultPlan())
			if err != nil {
				return archive.SkyCampaign{}, err
			}
			return archive.ComputeSkyCampaign(r.Cost, tl.mosaics)
		},
	}.Do(ctx)
	if err != nil {
		return Q3WholeSkyResult{}, err
	}
	return Q3WholeSkyResult{FourDeg: campaigns[0], SixDeg: campaigns[1]}, nil
}

// Table renders the whole-sky costing.
func (r Q3WholeSkyResult) Table() *report.Table {
	t := report.New("Q3: cost of the mosaic of the entire sky",
		"tiling", "mosaics", "per-mosaic$", "total$", "total$(archived inputs)")
	for _, c := range []struct {
		name string
		camp archive.SkyCampaign
	}{{"4-degree", r.FourDeg}, {"6-degree", r.SixDeg}} {
		t.MustAdd(c.name,
			fmt.Sprint(c.camp.Mosaics),
			report.F(c.camp.CostPerMosaic.Dollars(), 2),
			report.F(c.camp.TotalCost.Dollars(), 0),
			report.F(c.camp.TotalCostArchived.Dollars(), 0),
		)
	}
	return t
}

// Q3StoreRow is one workflow's store-vs-recompute horizon.
type Q3StoreRow struct {
	Workflow string
	Horizon  archive.StorageHorizon
	Paper    float64 // months reported by the paper
}

// Q3StoreResult is the store-vs-recompute analysis for the three
// presets.
type Q3StoreResult struct {
	Rows []Q3StoreRow
}

// Q3Store computes, from measured CPU costs and mosaic sizes, how long
// each generated mosaic is worth storing rather than recomputing.
func Q3Store(ctx context.Context) (Q3StoreResult, error) {
	paper := map[string]float64{
		"montage-1deg": 21.52, "montage-2deg": 24.25, "montage-4deg": 25.12,
	}
	rows, err := Sweep[montage.Spec, Q3StoreRow]{
		Name:   "q3-store",
		Points: montage.Presets(),
		Run: func(ctx context.Context, spec montage.Spec) (Q3StoreRow, error) {
			w, err := generate(spec)
			if err != nil {
				return Q3StoreRow{}, err
			}
			r, err := core.RunContext(ctx, w, core.DefaultPlan())
			if err != nil {
				return Q3StoreRow{}, err
			}
			h, err := archive.ComputeStorageHorizon(cost.Amazon2008(), w.OutputBytes(), r.Cost.CPU)
			if err != nil {
				return Q3StoreRow{}, err
			}
			return Q3StoreRow{Workflow: spec.Name, Horizon: h, Paper: paper[spec.Name]}, nil
		},
	}.Do(ctx)
	if err != nil {
		return Q3StoreResult{}, err
	}
	return Q3StoreResult{Rows: rows}, nil
}

// Table renders the horizons.
func (r Q3StoreResult) Table() *report.Table {
	t := report.New("Q3: store vs recompute horizons",
		"workflow", "mosaic", "cpu$", "storage$/month", "months", "paper-months")
	for _, row := range r.Rows {
		t.MustAdd(row.Workflow,
			row.Horizon.ProductBytes.String(),
			report.F(row.Horizon.RecomputeCost.Dollars(), 2),
			report.F(row.Horizon.MonthlyCost.Dollars(), 4),
			report.F(row.Horizon.Months, 2),
			report.F(row.Paper, 2),
		)
	}
	return t
}
