// Package goldfish is the public API of this reproduction of "Goldfish: An
// Efficient Federated Unlearning Framework" (Wang, Zhu, Chen,
// Esteves-Veríssimo; DSN 2024). It lets a user train a federated model over
// synthetic vision datasets, submit deletion requests, and unlearn them
// efficiently via the paper's four modules: knowledge-distillation basic
// model, composite loss (hard + confusion + distillation), optimization
// (early termination) and extension (adaptive distillation temperature,
// adaptive-weight aggregation).
//
// The public surface is one engine: goldfish.New builds a
// federated-unlearning engine from functional options, and WithUnlearner
// names the procedure its clients run — the paper's ("goldfish") or one of
// its three baselines ("retrain", "fisher", "incompetent-teacher"), each
// run by the same Client over one shared federated runtime.
//
// Quick start:
//
//	e, _ := goldfish.New(
//		goldfish.WithDataset("mnist", goldfish.ScaleSmall),
//		goldfish.WithUnlearner("goldfish"),
//	)
//	_ = e.Run(ctx, 8)                         // train
//	_ = e.RequestDeletion(0, rowsToForget)    // right to be forgotten
//	_ = e.Run(ctx, 8)                         // unlearn + recover
//
// See the examples/ directory for runnable programs and scenario specs;
// examples/scenarios/paper/ and the root paper_test.go hold the paper's
// experiment suite.
package goldfish

import (
	"math/rand"

	"goldfish/internal/core"
	"goldfish/internal/data"
	"goldfish/internal/fed"
	"goldfish/internal/loss"
	"goldfish/internal/metrics"
	"goldfish/internal/model"
	"goldfish/internal/nn"
	"goldfish/internal/optim"
	"goldfish/internal/persist"
	"goldfish/internal/preset"
	"goldfish/internal/stats"
	"goldfish/internal/unlearn"
)

// Core framework types (see internal/core and internal/unlearn for
// details).
type (
	// Config configures a Goldfish client: model, loss, optimizer, local
	// epochs, early termination.
	Config = core.Config
	// Client is one federation participant.
	Client = core.Client
	// RoundStats summarizes a completed round for callbacks.
	RoundStats = unlearn.RoundStats
)

// Data types.
type (
	// Dataset is a labelled image set in NCHW layout.
	Dataset = data.Dataset
	// Scale selects experiment sizes (ScaleTiny … ScalePaper).
	Scale = data.Scale
	// BackdoorConfig describes the trigger-patch attack used to probe
	// unlearning.
	BackdoorConfig = data.BackdoorConfig
	// Preset bundles a ready-to-run dataset/model/hyperparameter set.
	Preset = preset.Preset
)

// Model types.
type (
	// ModelConfig describes a network architecture to build.
	ModelConfig = model.Config
	// Arch names an architecture from the paper's model zoo.
	Arch = model.Arch
	// Network is a trainable neural network.
	Network = nn.Network
)

// Loss types.
type (
	// GoldfishLoss is the paper's composite objective (Eq. 6).
	GoldfishLoss = loss.Goldfish
	// HardLoss is a supervised loss plug-in (cross-entropy, focal, NLL).
	HardLoss = loss.Hard
)

// Aggregation and runtime types.
type (
	// Aggregator combines client updates into a global model.
	Aggregator = fed.Aggregator
	// FedAvg is sample-weighted averaging (McMahan et al.).
	FedAvg = fed.FedAvg
	// AdaptiveWeight is the paper's MSE-guided aggregation (Eqs. 12–13).
	AdaptiveWeight = fed.AdaptiveWeight
	// ModelUpdate is one client's upload.
	ModelUpdate = fed.ModelUpdate
)

// SGDConfig configures local stochastic gradient descent.
type SGDConfig = optim.SGDConfig

// Experiment scales, mirroring internal/data.
const (
	ScaleTiny   = data.ScaleTiny
	ScaleSmall  = data.ScaleSmall
	ScaleMedium = data.ScaleMedium
	ScalePaper  = data.ScalePaper
)

// Architectures of the paper's model zoo.
const (
	ArchLeNet5    = model.ArchLeNet5
	ArchLeNet5Mod = model.ArchLeNet5Mod
	ArchResNet32  = model.ArchResNet32
	ArchResNet56  = model.ArchResNet56
	ArchMLP       = model.ArchMLP
)

// NewPreset resolves the paper's configuration for a dataset ("mnist",
// "fmnist", "cifar10", "cifar100") at the given scale. seed 0 selects the
// default seed.
func NewPreset(dataset string, scale Scale, seed int64) (Preset, error) {
	return preset.For(dataset, "", scale, seed)
}

// NewPresetWithArch is NewPreset with an explicit architecture override
// (e.g. ResNet-32 on CIFAR-10 as in Fig. 4d).
func NewPresetWithArch(dataset string, arch Arch, scale Scale, seed int64) (Preset, error) {
	return preset.For(dataset, arch, scale, seed)
}

// DefaultConfig returns the paper's hyperparameters for a model
// configuration.
func DefaultConfig(m ModelConfig) Config { return core.DefaultConfig(m) }

// DefaultLoss returns the paper's composite loss defaults (µc=0.25, µd=1.0,
// T=3, cross-entropy hard loss).
func DefaultLoss() GoldfishLoss { return loss.NewGoldfish() }

// BuildModel constructs a network from the model zoo.
func BuildModel(cfg ModelConfig) (*Network, error) { return model.Build(cfg) }

// PartitionIID splits a dataset uniformly across clients.
func PartitionIID(d *Dataset, parts int, rng *rand.Rand) ([]*Dataset, error) {
	return data.PartitionIID(d, parts, rng)
}

// PartitionHeterogeneous splits a dataset with uneven sizes and label skew
// (skew in (0,1]; smaller is more heterogeneous).
func PartitionHeterogeneous(d *Dataset, parts int, skew float64, rng *rand.Rand) ([]*Dataset, error) {
	return data.PartitionHeterogeneous(d, parts, skew, rng)
}

// DefaultBackdoor returns the trigger-patch attack used across the paper's
// experiments.
func DefaultBackdoor() BackdoorConfig { return data.DefaultBackdoor() }

// Accuracy evaluates a network's top-1 accuracy on a dataset.
func Accuracy(net *Network, d *Dataset) float64 { return metrics.Accuracy(net, d, 0) }

// AttackSuccessRate measures the fraction of trigger-stamped samples
// classified as the attack target.
func AttackSuccessRate(net *Network, triggered *Dataset, target int) float64 {
	return metrics.AttackSuccessRate(net, triggered, target, 0)
}

// Divergence holds model-similarity statistics (mean per-sample JSD and L2
// between predictive distributions).
type Divergence = metrics.Divergence

// ModelDivergence compares the predictive distributions of two models over
// a probe dataset.
func ModelDivergence(a, b *Network, probe *Dataset) (Divergence, error) {
	return metrics.ModelDivergence(a, b, probe, 0)
}

// MembershipGap estimates how much a model still "remembers" target
// samples: the difference between its mean top-confidence on them and on a
// held-out probe set. A memorizing model shows a positive gap; after
// successful unlearning the gap returns towards zero.
func MembershipGap(net *Network, target, probe *Dataset) float64 {
	return metrics.MembershipGap(net, target, probe, 0)
}

// TTestResult is the outcome of a Welch two-sample t-test.
type TTestResult = stats.TTestResult

// ConfidenceTTest tests whether two models' prediction-confidence patterns
// are statistically distinguishable.
func ConfidenceTTest(a, b *Network, probe *Dataset) (TTestResult, error) {
	return metrics.ConfidenceTTest(a, b, probe, 0)
}

// SaveCheckpoint stores a network's full state (parameters and BatchNorm
// running statistics) with an integrity checksum.
func SaveCheckpoint(path string, arch string, net *Network, meta map[string]string) error {
	return persist.SaveFile(path, arch, net.StateVector(), meta)
}

// LoadCheckpoint restores a checkpoint into a network built by the caller
// (the architecture must match the one saved).
func LoadCheckpoint(path string, net *Network) (meta map[string]string, err error) {
	cp, err := persist.LoadFile(path)
	if err != nil {
		return nil, err
	}
	if err := net.SetStateVector(cp.State); err != nil {
		return nil, err
	}
	return cp.Meta, nil
}
