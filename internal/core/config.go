// Package core is the paper's primary contribution: a distributed
// data-parallel trainer for knowledge-graph embeddings implementing the five
// dynamic strategies of Panda & Vadhiyar (ICPP 2022) on top of the mpi and
// simnet substrates:
//
//  1. Dynamic selection between all-reduce and all-gather gradient exchange
//     (probe every k epochs, switch permanently if all-gather is faster).
//  2. Random Selection (RS) of gradient rows by 2-norm Bernoulli sampling.
//  3. 1-bit / 2-bit gradient quantization of the communicated rows.
//  4. Relation Partition (RP): triples partitioned so relations never span
//     ranks, eliminating relation-gradient communication entirely.
//  5. Negative Sample Selection (SS): per positive, draw n candidates and
//     train on the hardest (highest-scoring) one.
//
// Every rank runs as a goroutine with a full model replica (the Horovod
// replication scheme); gradient exchanges are deterministic, so replicas
// remain bit-identical except for rank-private relation rows under RP.
package core

import (
	"fmt"

	"kgedist/internal/grad"
	"kgedist/internal/model"
	"kgedist/internal/opt"
	"kgedist/internal/simnet"
)

// CommStrategy selects the gradient-exchange baseline.
type CommStrategy int

// Exchange strategies of the paper's baseline study (§3.4) plus the dynamic
// strategy of §4.1.
const (
	// CommAllReduce always performs dense all-reduce of the full gradient
	// matrix.
	CommAllReduce CommStrategy = iota
	// CommAllGather always all-gathers the non-zero gradient rows.
	CommAllGather
	// CommDynamic starts with all-reduce and probes all-gather every
	// ProbeEvery epochs, switching permanently when the probe wins.
	CommDynamic
	// CommDynamicCompress is the adaptive compression controller (DESIGN.md
	// §13): exchanges ride the compressed reduce-scatter/all-gather pipeline
	// at every rung, and a per-epoch gradient-entropy probe walks the
	// monotone ladder fp32 -> 2-bit -> 1-bit -> 1-bit+RS with error-feedback
	// residuals. Owns quantization, selection and error feedback, so the
	// static Quant/Select/ErrorFeedback knobs must stay unset.
	CommDynamicCompress
)

// String returns the paper's name for the strategy.
func (c CommStrategy) String() string {
	switch c {
	case CommAllReduce:
		return "allreduce"
	case CommAllGather:
		return "allgather"
	case CommDynamic:
		return "dynamic"
	case CommDynamicCompress:
		return "dyncomp"
	}
	return "unknown"
}

// Config assembles a training run. The zero value is not runnable; start
// from DefaultConfig.
type Config struct {
	// ModelName is "complex" (the paper's model), "distmult" or "transe".
	ModelName string
	// Dim is the embedding dimension (complex dimension for ComplEx).
	Dim int
	// OptimizerName is "adam" (paper), "adagrad" or "sgd".
	OptimizerName string
	// LossName selects the objective: "logistic" (the paper's ComplEx
	// loss) or "margin" (the pairwise margin-ranking loss of the TransE
	// line of work, kept as a baseline objective).
	LossName string
	// Margin is the ranking margin gamma for LossName "margin".
	Margin float64

	// BatchSize is the per-worker batch size (paper: 10000).
	BatchSize int
	// BaseLR is the single-node learning rate (paper: 0.001).
	BaseLR float64
	// LRScaleCap caps the linear-scaling factor (paper: 4).
	LRScaleCap int
	// LRFactor multiplies the LR on plateau (paper: 0.1).
	LRFactor float64
	// MinLR floors the schedule.
	MinLR float64
	// Tolerance is the plateau patience in epochs (paper: 15).
	Tolerance int
	// StopPatience ends training after this many epochs without
	// validation improvement.
	StopPatience int
	// MaxEpochs hard-caps training length.
	MaxEpochs int
	// L2 is the weight-decay coefficient applied to touched rows.
	L2 float64

	// Comm is the gradient-exchange strategy.
	Comm CommStrategy
	// ProbeEvery is the dynamic strategy's probe period k (paper: 10).
	ProbeEvery int
	// CompressHold is the adaptive controller's hysteresis: consecutive
	// below-threshold epochs required per ladder step (CommDynamicCompress
	// only; 0 = grad.DefaultHold). See DESIGN.md §13.
	CompressHold int
	// CompressWarmup is the initial epochs during which the adaptive
	// controller never steps (CommDynamicCompress only; 0 =
	// grad.DefaultWarmup). See DESIGN.md §13.
	CompressWarmup int
	// Select is the random-selection mode applied to communicated rows.
	Select grad.SelectMode
	// Quant is the quantization scheme for the all-gather path; the dense
	// all-reduce path always runs full precision (bits cannot be summed).
	Quant grad.Scheme
	// ErrorFeedback enables residual error accumulation for quantization
	// (extension; off in the paper's main pipeline).
	ErrorFeedback bool
	// RelationPartition distributes triples by relation (§4.4) instead of
	// uniformly, eliminating relation-gradient communication.
	RelationPartition bool

	// Partitioned enables the sharded-table training mode: a joint
	// entity+relation partition assigns every embedding row to exactly one
	// owner rank, each rank holds only its owned shard, and batches pull the
	// remote rows they touch and push gradient rows back (the DGL-KE
	// scale-out scheme grafted onto this trainer). Memory per rank then
	// shrinks with the world size instead of replicating the full table.
	// Mutually exclusive with RelationPartition, quantization, error
	// feedback, the dynamic comm probe and TrackEpochStats — the row
	// exchange is its own communication mode.
	Partitioned bool
	// PartitionBy selects the row partitioner for Partitioned mode: "mincut"
	// (greedy min-cut over the triple hypergraph; default) or "hash" (seeded
	// uniform hashing, the locality-free baseline).
	PartitionBy string
	// PartitionSlack is the balance slack for Partitioned mode: each rank
	// owns at most about ceil(total/P)*(1+slack) rows of either table. Zero
	// means the partition package default (0.1).
	PartitionSlack float64

	// NegSamples is n, the negatives drawn per positive.
	NegSamples int
	// NegSelect trains on only the hardest of the n candidates (§4.5);
	// otherwise all n are trained on.
	NegSelect bool

	// ValSample caps the validation triples scored per epoch (0 = all).
	ValSample int
	// TestSample caps the test triples used for the final MRR ranking
	// evaluation (0 = all).
	TestSample int

	// WarmStart, when non-nil, initializes every replica from these
	// parameters instead of random initialization — continue-training /
	// fine-tuning from a checkpoint. Shapes must match the dataset and
	// model width.
	WarmStart *model.Params

	// FaultPlan, when non-nil, schedules deterministic faults (rank crashes,
	// slowdown windows, network-delay spikes) against the virtual clock.
	// The plan is cloned at train start; see simnet.ParseFaultPlan for the
	// textual form used by the -faults CLI flag.
	FaultPlan *simnet.FaultPlan
	// CheckpointEvery > 0 snapshots the merged model every that many epochs
	// (charged to the virtual clock). The snapshot is the warm-start point
	// for shrink-and-continue recovery; epoch 0 (the initialization) is
	// always an implicit snapshot, so recovery works even before the first
	// periodic checkpoint.
	CheckpointEvery int
	// CheckpointPath, when set, additionally persists each snapshot to disk
	// with the crash-safe protocol (tmp file + checksum + rename). Requires
	// CheckpointEvery > 0 to have any effect.
	CheckpointPath string
	// Recover enables shrink-and-continue: when ranks die mid-training the
	// world is shrunk over the survivors, the dead ranks' shards are
	// re-partitioned, and training resumes from the last snapshot. Without
	// it a rank failure aborts the run with *mpi.RankFailedError.
	Recover bool
	// MaxRecoveries caps shrink-and-continue attempts; one more failure
	// degrades the run to a single fault-free node (graceful degradation)
	// instead of giving up. Ignored unless Recover is set.
	MaxRecoveries int
	// RecoveryBackoff is the virtual seconds charged for the first recovery
	// (failure detection, re-partitioning, checkpoint reload); each further
	// recovery doubles it — exponential backoff in simulated time.
	RecoveryBackoff float64

	// Seed drives every random choice of the run.
	Seed uint64
	// TrackEpochStats records per-epoch gradient-row counts and sparsity
	// (needed by the figure experiments; small extra cost).
	TrackEpochStats bool
}

// DefaultConfig returns the paper's hyper-parameters scaled to the mini
// datasets: ComplEx + Adam, batch 2000 (stands in for 10000 on the full
// datasets), plateau 0.1x after 15 epochs, cap-4 linear LR scaling. The
// base learning rate is 0.01 rather than the paper's 0.001 because the mini
// datasets take roughly 10x fewer optimizer steps per epoch; with Adam the
// product steps x lr governs progress, and 0.01 restores the paper's
// convergence horizon (a few hundred epochs shrink to under a hundred).
func DefaultConfig() Config {
	return Config{
		ModelName:     "complex",
		Dim:           32,
		OptimizerName: "adam",
		LossName:      "logistic",
		Margin:        1,
		BatchSize:     2000,
		BaseLR:        0.01,
		LRScaleCap:    4,
		LRFactor:      0.1,
		MinLR:         1e-5,
		Tolerance:     15,
		StopPatience:  25,
		MaxEpochs:     80,
		L2:            1e-5,
		Comm:          CommAllReduce,
		ProbeEvery:    10,
		Select:        grad.SelectAll,
		Quant:         grad.NoQuant,
		NegSamples:    1,
		NegSelect:     false,
		ValSample:     2000,
		TestSample:    300,
		MaxRecoveries: 3,
		RecoveryBackoff: 30,
		Seed:          1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if !model.IsKnownModel(c.ModelName) {
		return fmt.Errorf("core: unknown model %q", c.ModelName)
	}
	if !opt.IsKnownOptimizer(c.OptimizerName) {
		return fmt.Errorf("core: unknown optimizer %q", c.OptimizerName)
	}
	if c.Dim <= 0 {
		return fmt.Errorf("core: Dim must be positive, got %d", c.Dim)
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("core: BatchSize must be positive, got %d", c.BatchSize)
	}
	if c.BaseLR <= 0 {
		return fmt.Errorf("core: BaseLR must be positive, got %v", c.BaseLR)
	}
	if c.MaxEpochs <= 0 {
		return fmt.Errorf("core: MaxEpochs must be positive, got %d", c.MaxEpochs)
	}
	if c.NegSamples < 1 {
		return fmt.Errorf("core: NegSamples must be >= 1, got %d", c.NegSamples)
	}
	switch c.PartitionBy {
	case "", "mincut", "hash":
	default:
		return fmt.Errorf("core: unknown row partitioner %q (want mincut or hash)", c.PartitionBy)
	}
	if c.PartitionSlack < 0 {
		return fmt.Errorf("core: PartitionSlack must be >= 0, got %v", c.PartitionSlack)
	}
	if !c.Partitioned && (c.PartitionBy != "" || c.PartitionSlack != 0) {
		return fmt.Errorf("core: PartitionBy/PartitionSlack configure Partitioned mode; set Partitioned")
	}
	if c.Partitioned {
		if err := c.validatePartitioned(); err != nil {
			return err
		}
	}
	switch c.LossName {
	case "", "logistic":
	case "margin":
		if c.Margin <= 0 {
			return fmt.Errorf("core: margin loss needs Margin > 0, got %v", c.Margin)
		}
	default:
		return fmt.Errorf("core: unknown loss %q", c.LossName)
	}
	if c.Comm == CommDynamic && c.ProbeEvery < 1 {
		return fmt.Errorf("core: ProbeEvery must be >= 1 for dynamic comm, got %d", c.ProbeEvery)
	}
	if c.CompressHold < 0 || c.CompressWarmup < 0 {
		return fmt.Errorf("core: CompressHold and CompressWarmup must be >= 0")
	}
	if c.Comm != CommDynamicCompress && (c.CompressHold != 0 || c.CompressWarmup != 0) {
		return fmt.Errorf("core: CompressHold/CompressWarmup configure the adaptive controller; set Comm to dyncomp")
	}
	if c.Comm == CommDynamicCompress {
		if err := c.validateDynamicCompress(); err != nil {
			return err
		}
	}
	if c.Tolerance < 1 || c.StopPatience < 1 {
		return fmt.Errorf("core: Tolerance and StopPatience must be >= 1")
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("core: CheckpointEvery must be >= 0, got %d", c.CheckpointEvery)
	}
	if c.CheckpointPath != "" && c.CheckpointEvery <= 0 {
		return fmt.Errorf("core: CheckpointPath needs CheckpointEvery > 0")
	}
	if c.MaxRecoveries < 0 {
		return fmt.Errorf("core: MaxRecoveries must be >= 0, got %d", c.MaxRecoveries)
	}
	if c.RecoveryBackoff < 0 {
		return fmt.Errorf("core: RecoveryBackoff must be >= 0, got %v", c.RecoveryBackoff)
	}
	return nil
}

// validatePartitioned rejects every mode combination the sharded-table
// trainer cannot honor, each with the reason: the row exchange replaces the
// replicated gradient collectives, so knobs that reshape those collectives
// (or assume full replicas) have nothing to act on.
func (c Config) validatePartitioned() error {
	conflict := ""
	switch {
	case c.RelationPartition:
		conflict = "RelationPartition (the joint partition already assigns every relation row an owner)"
	case c.Comm == CommDynamic:
		conflict = "dynamic comm (the probe arbitrates all-reduce vs all-gather of replicated gradients)"
	case c.Comm == CommDynamicCompress:
		conflict = "adaptive compression (the ladder compresses the replicated gradient collectives)"
	case c.Quant != grad.NoQuant:
		conflict = "quantization (pushed rows are re-applied by their owner at full precision)"
	case c.ErrorFeedback:
		conflict = "ErrorFeedback (residuals exist only for lossy replicated exchanges)"
	case c.TrackEpochStats:
		conflict = "TrackEpochStats (per-epoch merged-model evaluation needs full replicas)"
	}
	if conflict != "" {
		return fmt.Errorf("core: Partitioned cannot be combined with %s", conflict)
	}
	return nil
}

// validateDynamicCompress rejects knobs the adaptive compression controller
// owns itself (DESIGN.md §13): the ladder decides the quantization scheme,
// the selection mode and the error-feedback residuals per epoch, so the
// static flags must be left at their defaults.
func (c Config) validateDynamicCompress() error {
	conflict := ""
	switch {
	case c.Quant != grad.NoQuant:
		conflict = "Quant (the ladder picks the scheme per epoch)"
	case c.Select != grad.SelectAll:
		conflict = "Select (the ladder's RS rung owns row selection)"
	case c.ErrorFeedback:
		conflict = "ErrorFeedback (residuals are integral to the ladder; always on at lossy rungs)"
	}
	if conflict != "" {
		return fmt.Errorf("core: adaptive compression (dyncomp) cannot be combined with %s", conflict)
	}
	return nil
}

// StrategyLabel renders the configuration in the paper's shorthand, e.g.
// "DRS+1-bit+RP+SS".
func (c Config) StrategyLabel() string {
	if c.Partitioned {
		algo := c.PartitionBy
		if algo == "" {
			algo = "mincut"
		}
		label := "partitioned-" + algo
		if c.Select == grad.SelectBernoulli {
			label += "+RS"
		}
		if c.NegSelect {
			label += "+SS"
		}
		return label
	}
	label := ""
	switch {
	case c.Comm == CommDynamicCompress:
		label = "dyncomp"
	case c.Comm == CommDynamic && c.Select == grad.SelectBernoulli:
		label = "DRS"
	case c.Select == grad.SelectBernoulli:
		label = "RS"
	default:
		label = c.Comm.String()
	}
	if c.Quant != grad.NoQuant {
		switch c.Quant.BitsPerValue() {
		case 1:
			label += "+1-bit"
		case 2:
			label += "+2-bit"
		}
	}
	if c.RelationPartition {
		label += "+RP"
	}
	if c.NegSelect {
		label += "+SS"
	}
	return label
}
