package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/datamgmt"
)

// relErr is the deviation of a reproduced value from the paper's
// published one, relative to the (nonzero) published value.
func relErr(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }

func TestCCRTableMatchesPaper(t *testing.T) {
	res, err := CCRTable(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		if relErr(row.CCR, row.PaperCCR) > 0.02 {
			t.Errorf("%s: CCR %.4f vs paper %.4f", row.Workflow, row.CCR, row.PaperCCR)
		}
	}
	tbl := res.Table()
	var b strings.Builder
	if err := tbl.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "montage-4deg") {
		t.Error("table missing 4-degree row")
	}
}

func TestFig4Anchors(t *testing.T) {
	f, err := Fig4(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Points) != 8 {
		t.Fatalf("got %d points, want 8", len(f.Points))
	}
	// Paper: 1 proc -> ~$0.60 / 5.5 h; 128 procs -> ~$4 / 18 min.
	first, last := f.Points[0], f.Points[7]
	if tot := float64(first.Result.Cost.Total()); math.Abs(tot-0.60) > 0.10 {
		t.Errorf("1-proc total = $%.3f, want ~$0.60", tot)
	}
	if h := first.Result.Metrics.ExecTime.Hours(); math.Abs(h-5.5) > 0.7 {
		t.Errorf("1-proc time = %.2f h, want ~5.5", h)
	}
	if tot := float64(last.Result.Cost.Total()); tot < 2.5 || tot > 5.5 {
		t.Errorf("128-proc total = $%.3f, want ~$4", tot)
	}
	if min := last.Result.Metrics.ExecTime.Seconds() / 60; min < 10 || min > 30 {
		t.Errorf("128-proc time = %.1f min, want ~18", min)
	}
	if got := len(f.CostTable().Rows); got != 8 {
		t.Errorf("cost table rows = %d, want 8", got)
	}
	if got := len(f.TimeTable().Rows); got != 8 {
		t.Errorf("time table rows = %d, want 8", got)
	}
}

func TestFig5Anchors(t *testing.T) {
	f, err := Fig5(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 1 proc $2.25 / 20.5 h; 128 procs < $8 / < 40 min.
	first, last := f.Points[0], f.Points[7]
	if tot := float64(first.Result.Cost.Total()); math.Abs(tot-2.25) > 0.25 {
		t.Errorf("1-proc total = $%.3f, want ~$2.25", tot)
	}
	if h := first.Result.Metrics.ExecTime.Hours(); math.Abs(h-20.5) > 1.5 {
		t.Errorf("1-proc time = %.2f h, want ~20.5", h)
	}
	if tot := float64(last.Result.Cost.Total()); tot > 8 {
		t.Errorf("128-proc total = $%.3f, paper says < $8", tot)
	}
	if min := last.Result.Metrics.ExecTime.Seconds() / 60; min > 40 {
		t.Errorf("128-proc time = %.1f min, paper says < 40", min)
	}
}

func TestFig6Anchors(t *testing.T) {
	if testing.Short() {
		t.Skip("4-degree sweep is slow")
	}
	f, err := Fig6(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 1 proc $9 / 85 h; 128 procs ~$14 / ~1 h; 16 procs 5.5 h / $9.25.
	first, last := f.Points[0], f.Points[7]
	if tot := float64(first.Result.Cost.Total()); math.Abs(tot-9) > 0.8 {
		t.Errorf("1-proc total = $%.3f, want ~$9", tot)
	}
	if h := first.Result.Metrics.ExecTime.Hours(); math.Abs(h-85) > 4 {
		t.Errorf("1-proc time = %.2f h, want ~85", h)
	}
	if tot := float64(last.Result.Cost.Total()); tot < 11 || tot > 18 {
		t.Errorf("128-proc total = $%.3f, want ~$14", tot)
	}
	if h := last.Result.Metrics.ExecTime.Hours(); h < 0.7 || h > 1.7 {
		t.Errorf("128-proc time = %.2f h, want ~1.1", h)
	}
	var sixteen *struct {
		tot float64
		h   float64
	}
	for _, p := range f.Points {
		if p.Processors == 16 {
			sixteen = &struct {
				tot float64
				h   float64
			}{float64(p.Result.Cost.Total()), p.Result.Metrics.ExecTime.Hours()}
		}
	}
	if sixteen == nil {
		t.Fatal("no 16-processor point")
	}
	if math.Abs(sixteen.tot-9.25) > 1.0 {
		t.Errorf("16-proc total = $%.3f, want ~$9.25", sixteen.tot)
	}
	if math.Abs(sixteen.h-5.5) > 1.0 {
		t.Errorf("16-proc time = %.2f h, want ~5.5", sixteen.h)
	}
}

func TestFig7ModeOrderings(t *testing.T) {
	f, err := Fig7(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rem := f.Results[datamgmt.RemoteIO]
	reg := f.Results[datamgmt.Regular]
	cln := f.Results[datamgmt.Cleanup]
	// Transfers: remote highest; regular == cleanup (Fig. 7 middle).
	if !(rem.Metrics.BytesIn > reg.Metrics.BytesIn && rem.Metrics.BytesOut > reg.Metrics.BytesOut) {
		t.Error("remote I/O does not move the most data")
	}
	if reg.Metrics.BytesIn != cln.Metrics.BytesIn {
		t.Error("regular and cleanup transfer volumes differ")
	}
	// DM costs: remote highest, cleanup lowest (Fig. 7 bottom).
	if !(rem.Cost.DataManagement() > reg.Cost.DataManagement()) {
		t.Error("remote I/O DM cost not highest")
	}
	if !(cln.Cost.DataManagement() < reg.Cost.DataManagement()) {
		t.Error("cleanup DM cost not lowest")
	}
	// Storage: regular mode uses the most (Fig. 7 top).
	if !(reg.Metrics.StorageByteSeconds > cln.Metrics.StorageByteSeconds) {
		t.Error("regular storage not above cleanup")
	}
	for _, tbl := range []int{
		len(f.StorageTable().Rows), len(f.TransferTable().Rows), len(f.CostTable().Rows),
	} {
		if tbl != 3 {
			t.Errorf("table rows = %d, want 3", tbl)
		}
	}
}

func TestFig8And9SameShapeAsFig7(t *testing.T) {
	if testing.Short() {
		t.Skip("larger workflows are slow")
	}
	for name, fn := range map[string]func(context.Context) (DataManagementFigure, error){
		"fig8": Fig8, "fig9": Fig9,
	} {
		f, err := fn(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rem := f.Results[datamgmt.RemoteIO]
		reg := f.Results[datamgmt.Regular]
		cln := f.Results[datamgmt.Cleanup]
		if !(rem.Cost.Total() > reg.Cost.Total() && cln.Cost.Total() < reg.Cost.Total()) {
			t.Errorf("%s: cost ordering broken (remote %v, regular %v, cleanup %v)",
				name, rem.Cost.Total(), reg.Cost.Total(), cln.Cost.Total())
		}
	}
}

func TestFig10Anchors(t *testing.T) {
	res, err := Fig10(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(res.Rows))
	}
	// Paper CPU costs: $0.56 / $2.03 / $8.40 -- ours match by calibration.
	wantCPU := map[string]float64{
		"montage-1deg": 0.56, "montage-2deg": 2.03, "montage-4deg": 8.40,
	}
	for _, row := range res.Rows {
		if got := float64(row.CPUCost); math.Abs(got-wantCPU[row.Workflow]) > 1e-6 {
			t.Errorf("%s CPU = $%.4f, want $%.2f", row.Workflow, got, wantCPU[row.Workflow])
		}
		// CPU exceeds DM cost in regular mode for every workflow (the
		// paper's headline: storage costs are insignificant vs CPU).
		if !(row.CPUCost > row.DM[datamgmt.Regular]) {
			t.Errorf("%s: CPU %v not above DM %v", row.Workflow, row.CPUCost, row.DM[datamgmt.Regular])
		}
	}
	// Paper: the 4-degree regular-mode total is $8.88.
	last := res.Rows[2]
	if got := float64(last.Total[datamgmt.Regular]); math.Abs(got-8.88) > 0.35 {
		t.Errorf("4-degree regular total = $%.3f, want ~$8.88", got)
	}
	if len(res.Table().Rows) != 3 {
		t.Error("Fig10 table row count wrong")
	}
}

func TestFig11Monotone(t *testing.T) {
	res, err := Fig11(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(Fig11CCRs()) {
		t.Fatalf("got %d points, want %d", len(res.Points), len(Fig11CCRs()))
	}
	for i := 1; i < len(res.Points); i++ {
		prev, cur := res.Points[i-1], res.Points[i]
		if cur.Result.Cost.Total() <= prev.Result.Cost.Total() {
			t.Errorf("total cost not increasing at CCR %v", cur.CCR)
		}
	}
	if len(res.Table().Rows) != len(res.Points) {
		t.Error("Fig11 table row count wrong")
	}
}

func TestQ2bAnchors(t *testing.T) {
	res, err := Q2b(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	be := res.BreakEven
	if float64(be.MonthlyStorageCost) != 1800 {
		t.Errorf("monthly storage = %v, want $1800", be.MonthlyStorageCost)
	}
	if float64(be.OneTimeUploadCost) != 1200 {
		t.Errorf("upload = %v, want $1200", be.OneTimeUploadCost)
	}
	// Ours: savings = measured transfer-in cost of the 2-degree request
	// (~$0.049 for ~490 MB of inputs), so the break-even lands near
	// 37,000 requests/month vs the paper's 18,000 (same order; the
	// paper's input volume is not published).
	if be.RequestsPerMonth < 10000 || be.RequestsPerMonth > 80000 {
		t.Errorf("break-even = %.0f requests/month, want tens of thousands", be.RequestsPerMonth)
	}
	if len(res.Table().Rows) != 6 {
		t.Error("Q2b table row count wrong")
	}
}

func TestQ3WholeSkyAnchors(t *testing.T) {
	if testing.Short() {
		t.Skip("4- and 6-degree runs are slow")
	}
	res, err := Q3WholeSky(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 3,900 x $8.88 = $34,632; ours lands within ~10%.
	if got := float64(res.FourDeg.TotalCost); math.Abs(got-34632) > 3500 {
		t.Errorf("whole-sky 4-degree total = $%.0f, want ~$34,632", got)
	}
	if res.FourDeg.TotalCostArchived >= res.FourDeg.TotalCost {
		t.Error("archived-inputs total not cheaper")
	}
	if res.SixDeg.Mosaics != 1734 {
		t.Errorf("6-degree mosaics = %d, want 1734", res.SixDeg.Mosaics)
	}
	if res.SixDeg.TotalCost <= 0 {
		t.Error("6-degree total not positive")
	}
	if len(res.Table().Rows) != 2 {
		t.Error("whole-sky table row count wrong")
	}
}

func TestQ3StoreAnchors(t *testing.T) {
	res, err := Q3Store(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(res.Rows))
	}
	// Paper horizons: 21.52 / 24.25 / 25.12 months; ours match because
	// mosaic sizes and CPU costs are calibrated.
	for _, row := range res.Rows {
		if relErr(row.Horizon.Months, row.Paper) > 0.03 {
			t.Errorf("%s horizon = %.2f months, want %.2f", row.Workflow, row.Horizon.Months, row.Paper)
		}
		if row.Horizon.Months < 20 || row.Horizon.Months > 27 {
			t.Errorf("%s horizon %.2f outside the ~2-year band", row.Workflow, row.Horizon.Months)
		}
	}
	if len(res.Table().Rows) != 3 {
		t.Error("store table row count wrong")
	}
}

func TestOverloadScenario(t *testing.T) {
	res, err := OverloadSeeded(context.Background(), DefaultOverloadSeed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 600 {
		t.Fatalf("requests = %d, want 600", res.Requests)
	}
	if res.Without.CloudRuns != 0 {
		t.Error("local-only baseline used the cloud")
	}
	if res.With.CloudRuns == 0 {
		t.Error("burst scenario never used the cloud")
	}
	// Bursting must fix the SLA story and cost real money.
	if res.With.SLAViolations >= res.Without.SLAViolations {
		t.Errorf("bursting did not reduce SLA violations: %d vs %d",
			res.With.SLAViolations, res.Without.SLAViolations)
	}
	if res.With.CloudSpend <= 0 {
		t.Error("bursting cost nothing")
	}
	if res.With.MeanTurnaround >= res.Without.MeanTurnaround {
		t.Error("bursting did not improve mean turnaround")
	}
	if len(res.Table().Rows) != 2 {
		t.Error("overload table row count wrong")
	}
}

func TestAblationGranularity(t *testing.T) {
	res, err := AblationGranularity(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("got %d rows, want 8", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.PerHour < row.PerSecond {
			t.Errorf("%d procs: hourly %v below per-second %v", row.Processors, row.PerHour, row.PerSecond)
		}
	}
	if len(res.Table().Rows) != 8 {
		t.Error("granularity table row count wrong")
	}
}

func TestAblationVMStartup(t *testing.T) {
	res, err := AblationVMStartup(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		prev, cur := res.Rows[i-1], res.Rows[i]
		if cur.ExecTime <= prev.ExecTime {
			t.Errorf("exec time not increasing with startup %v", cur.Startup)
		}
		if cur.Total <= prev.Total {
			t.Errorf("total cost not increasing with startup %v", cur.Startup)
		}
	}
	// A 15-minute boot on 16 procs adds 16 x 0.25 h x $0.1 = $0.40.
	delta := float64(res.Rows[3].Total - res.Rows[0].Total)
	if math.Abs(delta-0.40) > 0.01 {
		t.Errorf("15-min startup premium = $%.4f, want ~$0.40", delta)
	}
	if len(res.Table().Rows) != 4 {
		t.Error("startup table row count wrong")
	}
}

func TestAblationOutage(t *testing.T) {
	res, err := AblationOutage(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		prev, cur := res.Rows[i-1], res.Rows[i]
		if cur.Makespan < prev.Makespan {
			t.Errorf("makespan decreased with outage %v", cur.OutageLen)
		}
		if cur.Total < prev.Total {
			t.Errorf("cost decreased with outage %v", cur.OutageLen)
		}
	}
	// A 2-hour outage must delay the run by roughly 2 hours.
	delay := res.Rows[3].Makespan - res.Rows[0].Makespan
	if delay < 6000 || delay > 8000 {
		t.Errorf("2-hour outage delayed the run by %v, want ~7200 s", delay)
	}
	if len(res.Table().Rows) != 4 {
		t.Error("outage table row count wrong")
	}
}

func TestAblationScheduler(t *testing.T) {
	res, err := AblationScheduler(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 { // 3 pool sizes x 3 policies
		t.Fatalf("got %d rows, want 9", len(res.Rows))
	}
	// Group by pool size; the policies must all complete and differ only
	// in time/cost, with the spread staying modest (level-structured DAG).
	byProcs := map[int][]SchedulerRow{}
	for _, row := range res.Rows {
		if row.ExecTime <= 0 || row.Total <= 0 {
			t.Fatalf("degenerate row %+v", row)
		}
		byProcs[row.Processors] = append(byProcs[row.Processors], row)
	}
	for procs, rows := range byProcs {
		if len(rows) != 3 {
			t.Fatalf("%d procs: %d policies, want 3", procs, len(rows))
		}
		min, max := rows[0].ExecTime, rows[0].ExecTime
		for _, r := range rows {
			if r.ExecTime < min {
				min = r.ExecTime
			}
			if r.ExecTime > max {
				max = r.ExecTime
			}
		}
		if float64(max)/float64(min) > 1.5 {
			t.Errorf("%d procs: policy spread %vx too wide", procs, float64(max)/float64(min))
		}
	}
	if len(res.Table().Rows) != 9 {
		t.Error("scheduler table row count wrong")
	}
}

func TestAblationReliability(t *testing.T) {
	res, err := AblationReliability(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(res.Rows))
	}
	if res.Rows[0].FailureProb != 0 || res.Rows[0].Retries != 0 {
		t.Errorf("baseline row wrong: %+v", res.Rows[0])
	}
	for i := 1; i < len(res.Rows); i++ {
		prev, cur := res.Rows[i-1], res.Rows[i]
		if cur.Retries <= prev.Retries {
			t.Errorf("retries not increasing at p=%v", cur.FailureProb)
		}
		if cur.Total <= prev.Total {
			t.Errorf("cost not increasing at p=%v", cur.FailureProb)
		}
	}
	if len(res.Table().Rows) != 5 {
		t.Error("reliability table row count wrong")
	}
}

func TestAblationClustering(t *testing.T) {
	res, err := AblationClustering(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(res.Rows))
	}
	if res.Rows[0].Factor != 1 || res.Rows[0].Tasks != 203 {
		t.Errorf("baseline row wrong: %+v", res.Rows[0])
	}
	for i := 1; i < len(res.Rows); i++ {
		prev, cur := res.Rows[i-1], res.Rows[i]
		if cur.Tasks >= prev.Tasks {
			t.Errorf("task count not shrinking at factor %d", cur.Factor)
		}
		if cur.ExecTime < prev.ExecTime-1e-9 {
			t.Errorf("coarser clustering finished sooner at factor %d", cur.Factor)
		}
	}
	if len(res.Table().Rows) != 5 {
		t.Error("clustering table row count wrong")
	}
}

func TestAblationPlanComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("all-preset comparison is slow")
	}
	res, err := AblationPlanComparison(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Provisioned <= row.OnDemand {
			t.Errorf("%s: provisioned %v not above on-demand %v",
				row.Workflow, row.Provisioned, row.OnDemand)
		}
		if row.Utilization <= 0 || row.Utilization > 1 {
			t.Errorf("%s: utilization %v outside (0,1]", row.Workflow, row.Utilization)
		}
	}
	// The 4-degree row reproduces the paper's $13.92 vs $8.89 contrast.
	last := res.Rows[2]
	if got := float64(last.Provisioned); got < 11 || got > 18 {
		t.Errorf("4-degree provisioned = $%.2f, want ~$13.92", got)
	}
	if got := float64(last.OnDemand); got < 8 || got > 10.5 {
		t.Errorf("4-degree on-demand = $%.2f, want ~$8.89", got)
	}
}
