package additivity

import (
	"context"

	"additivity/internal/analytic"
	"additivity/internal/core"
	"additivity/internal/dataset"
	"additivity/internal/energy"
	"additivity/internal/experiments"
	"additivity/internal/faults"
	"additivity/internal/loadgen"
	"additivity/internal/machine"
	"additivity/internal/memo"
	"additivity/internal/ml"
	"additivity/internal/platform"
	"additivity/internal/pmc"
	"additivity/internal/service"
	"additivity/internal/workload"
)

// Platform modelling (paper Table 1).
type (
	// Platform is a multicore CPU specification with its PMU model.
	Platform = platform.Spec
	// Event is one entry of a platform's PMU event catalog.
	Event = platform.Event
)

// Haswell returns the paper's dual-socket Intel Haswell server.
func Haswell() *Platform { return platform.Haswell() }

// Skylake returns the paper's single-socket Intel Skylake server.
func Skylake() *Platform { return platform.Skylake() }

// PlatformByName returns a preset platform ("haswell" or "skylake").
func PlatformByName(name string) (*Platform, error) { return platform.ByName(name) }

// Catalog returns the platform's full PMU event catalog (164 events on
// Haswell, 385 on Skylake).
func Catalog(p *Platform) []Event { return platform.Catalog(p) }

// ReducedCatalog returns the catalog without low-count events (151 on
// Haswell, 323 on Skylake).
func ReducedCatalog(p *Platform) []Event { return platform.ReducedCatalog(p) }

// FindEvent resolves an event by name on a platform.
func FindEvent(p *Platform, name string) (Event, error) { return platform.FindEvent(p, name) }

// FindEvents resolves several events by name.
func FindEvents(p *Platform, names []string) ([]Event, error) {
	events := make([]Event, 0, len(names))
	for _, n := range names {
		e, err := platform.FindEvent(p, n)
		if err != nil {
			return nil, err
		}
		events = append(events, e)
	}
	return events, nil
}

// Workload modelling.
type (
	// Workload is an application model producing activity profiles.
	Workload = workload.Workload
	// App is a workload at a concrete problem size.
	App = workload.App
	// CompoundApp is a serial execution of base applications.
	CompoundApp = workload.CompoundApp
)

// DiverseSuite returns the Class A application suite (16 workloads whose
// default sizes yield 277 base applications).
func DiverseSuite() []Workload { return workload.DiverseSuite() }

// DGEMM returns the MKL-style dense matrix-multiplication model.
func DGEMM() Workload { return workload.DGEMM() }

// FFT returns the MKL-style 2D FFT model.
func FFT() Workload { return workload.FFT() }

// WorkloadByName returns a suite workload by name.
func WorkloadByName(name string) (Workload, error) { return workload.ByName(name) }

// BaseApps expands a suite over its default problem sizes.
func BaseApps(suite []Workload) []App { return workload.BaseApps(suite) }

// RandomCompounds pairs base applications into compound applications.
func RandomCompounds(base []App, count int, seed int64) []CompoundApp {
	return workload.RandomCompounds(base, count, seed)
}

// SizeSweep returns the apps of one workload across a size range.
func SizeSweep(w Workload, lo, hi, step int) []App { return workload.SizeSweep(w, lo, hi, step) }

// ExtendedSuite returns additional workload models beyond the paper's
// suite (k-means, stencils, GUPS, Black-Scholes, SpMV, Jacobi).
func ExtendedSuite() []Workload { return workload.ExtendedSuite() }

// KernelSpec declaratively describes a custom workload model.
type KernelSpec = workload.KernelSpec

// LoadKernel reads a JSON kernel spec and builds the workload, so users
// can model their own applications without writing Go.
var LoadKernel = workload.LoadKernel

// Execution and measurement.
type (
	// Machine executes workloads on a platform.
	Machine = machine.Machine
	// Run is one application execution.
	Run = machine.Run
	// Measurement is a statistically repeated energy measurement.
	Measurement = machine.Measurement
	// Methodology parameterises the measurement repetition loop.
	Methodology = machine.Methodology
	// PowerMeter is the WattsUp-Pro-style sampled meter.
	PowerMeter = energy.Meter
	// HCLWattsUp converts metered total energy to dynamic energy.
	HCLWattsUp = energy.HCLWattsUp
)

// NewMachine returns a seeded machine for the platform.
func NewMachine(p *Platform, seed int64) *Machine { return machine.New(p, seed) }

// DefaultMethodology returns the paper's measurement parameters (>= 3
// runs, 95% confidence within 5%).
func DefaultMethodology() Methodology { return machine.DefaultMethodology() }

// NewPowerMeter returns a WattsUp-Pro-like meter.
func NewPowerMeter(seed int64) *PowerMeter { return energy.NewMeter(seed) }

// NewHCLWattsUp returns the dynamic-energy measurement API.
func NewHCLWattsUp(staticWatts float64, seed int64) *HCLWattsUp {
	return energy.NewHCLWattsUp(staticWatts, seed)
}

// PerfGroup is a named co-schedulable event set (Likwid -g style).
type PerfGroup = platform.PerfGroup

// PerfGroups returns the platform's named performance groups.
func PerfGroups(p *Platform) []PerfGroup { return platform.PerfGroups(p) }

// PerfGroupByName returns the named group on a platform.
func PerfGroupByName(p *Platform, name string) (PerfGroup, error) {
	return platform.PerfGroupByName(p, name)
}

// Trace is a piecewise-constant power trace; Segment is one phase of it.
type (
	Trace   = energy.Trace
	Segment = energy.Segment
)

// PMC collection.
type (
	// Collector gathers PMC values under the register constraints.
	Collector = pmc.Collector
	// Counts maps event names to counter values.
	Counts = pmc.Counts
	// Group is one collection run's worth of events.
	Group = pmc.Group
	// GroupReport is a likwid-style group report with derived metrics.
	GroupReport = pmc.GroupReport
)

// NewCollector returns a seeded collector over a machine.
func NewCollector(m *Machine, seed int64) *Collector { return pmc.NewCollector(m, seed) }

// ScheduleGroups packs events into collection runs (<= registers slots
// each).
func ScheduleGroups(events []Event, registers int) ([]Group, error) {
	return pmc.ScheduleGroups(events, registers)
}

// RunsToCollectAll returns the application runs needed to collect a
// platform's whole reduced catalog (53 on Haswell, 99 on Skylake).
func RunsToCollectAll(p *Platform) (int, error) { return pmc.RunsToCollectAll(p) }

// ParseEventSet parses a likwid-style one-run event set
// ("EVENT:PMC0,EVENT2:PMC1"); FormatEventSet renders one.
var (
	ParseEventSet  = pmc.ParseEventSet
	FormatEventSet = pmc.FormatEventSet
)

// The additivity criterion (the paper's contribution).
type (
	// Checker runs the two-stage additivity test.
	Checker = core.Checker
	// CheckerConfig parameterises the additivity test.
	CheckerConfig = core.Config
	// Verdict is one PMC's additivity-test outcome.
	Verdict = core.Verdict
	// CorrelationRank pairs a PMC with its energy correlation.
	CorrelationRank = core.CorrelationRank
)

// NewChecker returns an additivity checker over a collector.
func NewChecker(c *Collector, cfg CheckerConfig) *Checker { return core.NewChecker(c, cfg) }

// DefaultCheckerConfig returns the paper's test parameters (5% tolerance).
func DefaultCheckerConfig() CheckerConfig { return core.DefaultConfig() }

// RankByAdditivity orders verdicts from most to least additive.
func RankByAdditivity(vs []Verdict) []Verdict { return core.RankByAdditivity(vs) }

// MostAdditive returns the k most additive PMC names.
func MostAdditive(vs []Verdict, k int) []string { return core.MostAdditive(vs, k) }

// DropLeastAdditive removes the least additive PMC from the verdict set.
func DropLeastAdditive(vs []Verdict) []Verdict { return core.DropLeastAdditive(vs) }

// RankByErrorPercentile orders verdicts by the p-th percentile of their
// per-compound errors — an alternative to the paper's max-error ranking.
func RankByErrorPercentile(vs []Verdict, p float64) []Verdict {
	return core.RankByErrorPercentile(vs, p)
}

// ForwardSelect greedily builds a PMC subset by minimising cross-
// validated prediction error — a data-driven alternative to correlation
// ranking for the online set.
func ForwardSelect(features map[string][]float64, energy []float64,
	candidates []string, k, folds int, seed int64,
	newModel func() Regressor) ([]string, error) {
	return core.ForwardSelect(features, energy, candidates, k, folds, seed, newModel)
}

// RankByCorrelation orders PMCs by |Pearson correlation| with energy.
func RankByCorrelation(features map[string][]float64, energy []float64) ([]CorrelationRank, error) {
	return core.RankByCorrelation(features, energy)
}

// TopCorrelated returns the k candidates most correlated with energy.
func TopCorrelated(features map[string][]float64, energy []float64, candidates []string, k int) ([]string, error) {
	return core.TopCorrelated(features, energy, candidates, k)
}

// SelectAdditiveCorrelated returns the k most energy-correlated PMCs among
// those with additivity error below maxErrPct — the paper's combined
// criterion for online models.
func SelectAdditiveCorrelated(vs []Verdict, features map[string][]float64,
	energy []float64, maxErrPct float64, k int) ([]string, error) {
	return core.SelectAdditiveCorrelated(vs, features, energy, maxErrPct, k)
}

// Models.
type (
	// Regressor is a trainable energy model.
	Regressor = ml.Regressor
	// ErrorStats is a min/avg/max percentage-error triple.
	ErrorStats = ml.ErrorStats
	// LinearRegression is the paper's penalised linear model.
	LinearRegression = ml.LinearRegression
	// RandomForest is a CART-based bagged forest.
	RandomForest = ml.RandomForest
	// NeuralNetwork is a linear-transfer MLP.
	NeuralNetwork = ml.NeuralNetwork
)

// NewLinearRegression returns the paper's linear model (non-negative
// coefficients, zero intercept).
func NewLinearRegression() *LinearRegression { return ml.NewLinearRegression() }

// NewRandomForest returns a 100-tree random forest.
func NewRandomForest(seed int64) *RandomForest { return ml.NewRandomForest(seed) }

// NewNeuralNetwork returns a linear-transfer MLP.
func NewNeuralNetwork(seed int64) *NeuralNetwork { return ml.NewNeuralNetwork(seed) }

// Evaluate reports a fitted model's min/avg/max percentage prediction
// errors on a test set.
func Evaluate(m Regressor, X [][]float64, y []float64) (ErrorStats, error) {
	return ml.Evaluate(m, X, y)
}

// CVResult is a k-fold cross-validation outcome.
type CVResult = ml.CVResult

// CrossValidate runs k-fold cross-validation of a model family.
func CrossValidate(newModel func() Regressor, X [][]float64, y []float64, k int, seed int64) (CVResult, error) {
	return ml.CrossValidate(newModel, X, y, k, seed)
}

// CrossValidateWorkers is CrossValidate with the folds trained on a
// bounded worker pool (workers <= 0: GOMAXPROCS). The result is
// byte-identical for every worker count.
func CrossValidateWorkers(newModel func() Regressor, X [][]float64, y []float64, k int, seed int64, workers int) (CVResult, error) {
	return ml.CrossValidateWorkers(newModel, X, y, k, seed, workers)
}

// SelectByCV picks the model family with the lowest cross-validated mean
// average error.
func SelectByCV(candidates map[string]func() Regressor, X [][]float64, y []float64, k int, seed int64) (string, CVResult, error) {
	return ml.SelectByCV(candidates, X, y, k, seed)
}

// Datasets.
type (
	// Dataset is a collection of (PMC features, measured energy) points.
	Dataset = dataset.Dataset
	// DatasetBuilder measures applications into datasets.
	DatasetBuilder = dataset.Builder
	// DataPoint is one dataset row.
	DataPoint = dataset.Point
)

// NewDatasetBuilder returns a builder over a machine and collector.
func NewDatasetBuilder(m *Machine, col *Collector, events []Event) *DatasetBuilder {
	return dataset.NewBuilder(m, col, events)
}

// ReadDatasetCSV parses a dataset written with Dataset.WriteCSV.
var ReadDatasetCSV = dataset.ReadCSV

// Experiment drivers (one per paper table).
type (
	// ClassAConfig parameterises the Class A experiment.
	ClassAConfig = experiments.ClassAConfig
	// ClassAResult holds Tables 2-5.
	ClassAResult = experiments.ClassAResult
	// ClassBConfig parameterises the Class B/C experiments.
	ClassBConfig = experiments.ClassBConfig
	// ClassBResult holds Tables 6 and 7a.
	ClassBResult = experiments.ClassBResult
	// ClassCResult holds Table 7b.
	ClassCResult = experiments.ClassCResult
	// ExperimentTable is a rendered experiment artifact.
	ExperimentTable = experiments.Table
	// ModelResult is one trained model's evaluation.
	ModelResult = experiments.ModelResult
)

// RunClassA regenerates Tables 2-5.
func RunClassA(cfg ClassAConfig) (*ClassAResult, error) { return experiments.RunClassA(cfg) }

// RunClassB regenerates Tables 6 and 7a.
func RunClassB(cfg ClassBConfig) (*ClassBResult, error) { return experiments.RunClassB(cfg) }

// RunClassC regenerates Table 7b from the Class B result.
func RunClassC(b *ClassBResult) (*ClassCResult, error) { return experiments.RunClassC(b) }

// Analytic energy modelling: the roofline-style closed-form model the
// service's predict fast path answers from (no collection runs).
type (
	// AnalyticModel predicts dynamic energy from platform catalog
	// parameters alone.
	AnalyticModel = analytic.Model
	// AnalyticParams are a platform's derived roofline parameters.
	AnalyticParams = analytic.Params
	// AnalyticPrediction is one closed-form energy estimate.
	AnalyticPrediction = analytic.Prediction
	// AnalyticConfig parameterises the analytic-vs-trained comparison.
	AnalyticConfig = experiments.AnalyticConfig
	// AnalyticResult holds the comparison's accuracy table.
	AnalyticResult = experiments.AnalyticResult
)

// NewAnalyticModel derives the closed-form model for a platform.
func NewAnalyticModel(p *Platform) *AnalyticModel { return analytic.New(p) }

// AnalyticParamsFor derives a platform's roofline parameters.
func AnalyticParamsFor(p *Platform) AnalyticParams { return analytic.ParamsFor(p) }

// RunAnalyticComparison evaluates the analytic model against the
// trained families (LR, RF, NN) on a held-out DGEMM/FFT split.
func RunAnalyticComparison(cfg AnalyticConfig) (*AnalyticResult, error) {
	return experiments.RunAnalyticComparison(cfg)
}

// AdditivityStudy is a whole-catalog additivity survey with tolerance
// sensitivity.
type (
	AdditivityStudy = experiments.AdditivityStudy
	StudyConfig     = experiments.StudyConfig
)

// RunAdditivityStudy surveys a platform's reduced catalog.
func RunAdditivityStudy(p *Platform, cfg StudyConfig) (*AdditivityStudy, error) {
	return experiments.RunAdditivityStudy(p, cfg)
}

// Energy-conservation premise verification (paper §4).
type (
	EnergyPremiseConfig    = experiments.EnergyPremiseConfig
	EnergyAdditivityResult = experiments.EnergyAdditivityResult
)

// VerifyEnergyAdditivity measures whether dynamic energy is additive over
// serial composition — the observation the whole criterion rests on.
func VerifyEnergyAdditivity(cfg EnergyPremiseConfig) ([]EnergyAdditivityResult, error) {
	return experiments.VerifyEnergyAdditivity(cfg)
}

// EnergyPremiseTable renders the premise verification.
var EnergyPremiseTable = experiments.EnergyPremiseTable

// WorkloadProfile characterises one suite workload at a reference size.
type WorkloadProfile = experiments.WorkloadProfile

// CharacterizeSuite profiles every workload of a suite on a platform.
var CharacterizeSuite = experiments.CharacterizeSuite

// CharacterizationTable renders a suite profile.
var CharacterizationTable = experiments.CharacterizationTable

// RAPLSensor models an on-chip energy sensor (workload-dependent bias).
type RAPLSensor = energy.RAPLSensor

// NewRAPLSensor returns a seeded on-chip sensor model.
func NewRAPLSensor(seed int64) *RAPLSensor { return energy.NewRAPLSensor(seed) }

// SensorComparison contrasts meter vs on-chip-sensor accuracy.
type SensorComparison = experiments.SensorComparison

// CompareSensors measures suite workloads with both pipelines.
var CompareSensors = experiments.CompareSensors

// SensorTable renders the comparison.
var SensorTable = experiments.SensorTable

// Pipeline types: the end-to-end SLOPE-PMC workflow.
type (
	PipelineConfig = experiments.PipelineConfig
	PipelineResult = experiments.PipelineResult
	Predictor      = experiments.Predictor
)

// RunPipeline executes the full workflow: additivity test → selection →
// training → evaluation.
func RunPipeline(cfg PipelineConfig) (*PipelineResult, error) {
	return experiments.RunPipeline(cfg)
}

// LoadPredictor reads a predictor package written by
// PipelineResult.SavePredictor.
var LoadPredictor = experiments.LoadPredictor

// SaveModel / LoadModel persist individual trained models.
var (
	SaveModel = ml.SaveModel
	LoadModel = ml.LoadModel
)

// WriteArtifacts regenerates the full evaluation into a directory:
// rendered tables, datasets as CSV, and a deployable predictor package.
var WriteArtifacts = experiments.WriteArtifacts

// Table1 renders the platform specification table.
func Table1() *ExperimentTable { return experiments.Table1() }

// CollectionTable renders the PMC-collection cost table (53/99 runs).
func CollectionTable() (*ExperimentTable, error) { return experiments.CollectionTable() }

// ClassAPMCs are the six Class A PMCs (X1..X6).
var ClassAPMCs = experiments.ClassAPMCs

// PAPMCs are the nine additive Class B PMCs (Table 6, X1..X9).
var PAPMCs = experiments.PAPMCs

// PNAPMCs are the nine non-additive Class B PMCs (Table 6, Y1..Y9).
var PNAPMCs = experiments.PNAPMCs

// DefaultSeed regenerates the tables exactly as recorded in
// EXPERIMENTS.md.
const DefaultSeed = experiments.DefaultSeed

// Fault injection and resilience (see EXPERIMENTS.md, "Fault model").
type (
	// FaultRates configures per-class fault probabilities.
	FaultRates = faults.Rates
	// FaultClass identifies one injected fault kind.
	FaultClass = faults.Class
	// FaultError is the typed error a fault delivery reports.
	FaultError = faults.Error
	// FaultInjector draws seeded, forkable fault decisions.
	FaultInjector = faults.Injector
	// RetryPolicy bounds redelivery attempts and backoff.
	RetryPolicy = faults.RetryPolicy
	// CollectStats reports a collector's fault bookkeeping.
	CollectStats = pmc.CollectStats
	// CollectorMethodology selects the collector's aggregation method.
	CollectorMethodology = pmc.Methodology
	// MeterStats reports a power meter's fault bookkeeping.
	MeterStats = energy.MeterStats
	// RAPLStats reports an on-chip sensor's fault bookkeeping.
	RAPLStats = energy.RAPLStats
	// CheckReport summarises retries, recoveries and degradation across
	// one additivity check.
	CheckReport = core.CheckReport
	// Journal checkpoints completed work units for resumption.
	Journal = core.Journal
	// FileJournal is the crash-tolerant append-only Journal used by
	// checkpointed studies and pipelines.
	FileJournal = experiments.FileJournal
)

// NewFaultInjector returns a seeded injector for the given rates.
func NewFaultInjector(seed int64, rates FaultRates) *FaultInjector {
	return faults.New(seed, rates)
}

// UniformFaultRates sets every detectable fault class to probability p,
// capped at maxConsecutive faulted attempts per delivery.
func UniformFaultRates(p float64, maxConsecutive int) FaultRates {
	return faults.Uniform(p, maxConsecutive)
}

// DefaultRetryPolicy returns the standard bounded-retry policy.
func DefaultRetryPolicy() RetryPolicy { return faults.DefaultRetryPolicy() }

// OpenFileJournal opens (creating if needed) a checkpoint journal.
var OpenFileJournal = experiments.OpenFileJournal

// Content-addressed measurement caching (see EXPERIMENTS.md,
// "Measurement cache").
type (
	// MeasurementCache deduplicates measurement work across checks,
	// studies and processes: an in-process single-flight LRU over an
	// optional checksummed on-disk store, keyed by the full identity of
	// each work unit. Cached results are byte-identical to fresh
	// measurements.
	MeasurementCache = memo.Cache
	// CacheOptions configures a measurement cache (disk directory,
	// capacity, sharding).
	CacheOptions = memo.Options
	// CacheStats is a point-in-time snapshot of a cache's counters.
	CacheStats = memo.StatsSnapshot
	// CacheOutcome says how one cached request was satisfied.
	CacheOutcome = memo.Outcome
	// DatasetStage is one Build call of a cached dataset stage.
	DatasetStage = experiments.DatasetStage
)

// NewMeasurementCache opens a measurement cache; a non-empty
// CacheOptions.Dir backs it with the on-disk store.
func NewMeasurementCache(opts CacheOptions) (*MeasurementCache, error) { return memo.New(opts) }

// BuildDatasetsCached runs a whole sequential dataset-building stage as
// one cached unit (cache may be nil: the stage just runs). The stage
// must be the last user of the builder's machine and collector — see
// the experiments package documentation.
func BuildDatasetsCached(cache *MeasurementCache, b *DatasetBuilder, label string, stages []DatasetStage) ([]*Dataset, CacheOutcome, error) {
	return experiments.BuildDatasetsCached(cache, b, label, stages)
}

// Additivity-as-a-service: the additivityd daemon core and its
// replayable load harness (see README.md, "Service & load harness").
type (
	// ServiceServer is the additivityd daemon core: an http.Handler
	// serving job submit/poll/result/abort endpoints plus health and
	// stats probes over the experiment engine. ServeHTTP is its only
	// job API; ExecuteJob runs one job directly, without a daemon.
	ServiceServer = service.Server
	// ServiceOptions configures a ServiceServer (shared measurement
	// cache, job-concurrency bound).
	ServiceOptions = service.Options
	// JobRequest is a submittable job: a kind plus its parameters.
	JobRequest = service.JobRequest
	// JobParams parameterises a job; zero values take kind-specific
	// defaults under Normalize.
	JobParams = service.JobParams
	// JobKind names a job family ("check", "train", "dataset" or
	// "predict").
	JobKind = service.JobKind
	// JobStatus is the poll-endpoint view of a job.
	JobStatus = service.JobStatus
	// JobState is a job's lifecycle state.
	JobState = service.JobState
	// ServiceStats is the daemon's /statsz payload.
	ServiceStats = service.Stats
	// CheckJobResult is the canonical payload of a check job.
	CheckJobResult = service.CheckResult
	// TrainJobResult is the canonical payload of a train job.
	TrainJobResult = service.TrainResult
	// DatasetJobResult is the canonical payload of a dataset job.
	DatasetJobResult = service.DatasetResult
	// PredictJobResult is the canonical payload of a predict job.
	PredictJobResult = service.PredictResult
	// LoadTrace is a replayable workload trace for the load harness.
	LoadTrace = loadgen.Trace
	// LoadGenConfig parameterises deterministic trace generation.
	LoadGenConfig = loadgen.GenConfig
	// LoadPlayConfig parameterises a trace replay against a daemon.
	LoadPlayConfig = loadgen.PlayConfig
	// LoadReport is the final outcome of one trace replay.
	LoadReport = loadgen.Report
)

// NewServiceServer returns an additivityd daemon core.
func NewServiceServer(opts ServiceOptions) *ServiceServer { return service.NewServer(opts) }

// ExecuteJob runs one job request directly (no daemon): the same
// canonical payload a daemon would serve for the normalised request.
func ExecuteJob(ctx context.Context, cache *MeasurementCache, req JobRequest) ([]byte, *CheckReport, error) {
	return service.Execute(ctx, cache, req)
}

// GenerateLoadTrace builds a workload trace deterministically from the
// configuration: the same config always yields byte-identical JSON.
func GenerateLoadTrace(cfg LoadGenConfig) (*LoadTrace, error) { return loadgen.GenerateTrace(cfg) }

// ParseLoadTrace decodes and normalises trace JSON; EncodeLoadTrace
// renders the canonical form back.
var (
	ParseLoadTrace  = loadgen.ParseTrace
	EncodeLoadTrace = loadgen.EncodeTrace
)

// PlayLoadTrace replays a trace against a running daemon with a
// bounded player pool and reports latency percentiles and
// success/error/degraded counters.
func PlayLoadTrace(cfg LoadPlayConfig) (*LoadReport, error) { return loadgen.Play(cfg) }
