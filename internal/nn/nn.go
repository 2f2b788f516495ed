// Package nn implements a small neural-network stack with manual
// backpropagation: dense, convolutional, pooling, batch-normalization and
// residual layers composed into sequential networks.
//
// The design favours the needs of federated unlearning research over raw
// speed: float64 everywhere, deterministic initialization from caller-owned
// RNGs, and a flat parameter-vector view of every network so that federated
// aggregation (FedAvg, adaptive weights) is plain vector algebra.
//
// Layers are not safe for concurrent use: each layer caches its most recent
// forward activations for the following Backward call. Clone a network per
// goroutine when training in parallel.
//
// Memory: a layer's caches are a few tensors the size of its input or
// output. Conv2D is im2col + matrix multiplication, but unrolls a tile of
// samples at a time (convTileFloats) and unrolls it again in Backward, so
// its column scratch is bounded by the tile, not by the batch.
//
// Who may skip an input gradient: only a caller that discards it. A training
// loop wants parameter gradients, not ∂L/∂input, so it calls
// Network.BackwardParams, which stops at the first layer holding parameters
// and lets that layer leave its input gradient uncomputed. The decision is
// the top-level caller's and lasts for that call: Network.Backward and
// Layer.Backward always return the full gradient, because a composite layer
// depends on it — Residual trains its inner main and skip networks through
// Network.Backward and sums what they return into its own result, so a skip
// keyed on a layer's position inside whichever network holds it would zero
// the gradients of everything below the block.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"goldfish/internal/tensor"
)

// Param is a single learnable tensor and its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Tensor // weights
	G    *tensor.Tensor // gradient of the loss w.r.t. W
}

// newParam allocates a parameter and a zeroed gradient of the same shape.
func newParam(name string, w *tensor.Tensor) *Param {
	return &Param{Name: name, W: w, G: tensor.New(w.Shape()...)}
}

// ActivationReleaser is implemented by layers that cache batch-sized
// activations or scratch buffers between Forward/Backward calls. Releasing
// frees that state so an idle model (e.g. a scoring replica waiting in its
// pool) pins no activation memory; the buffers are transparently
// reallocated on the next Forward.
type ActivationReleaser interface {
	ReleaseActivations()
}

// Layer is one differentiable stage of a network. Forward must be called
// before Backward; Backward receives ∂L/∂out and returns ∂L/∂in, adding
// parameter gradients into the layer's Param.G tensors. Backward always
// returns the input gradient: whether anyone reads it is not something a
// layer can know (see paramsBackwarder).
//
// Input lifetime: a layer may keep the tensor Forward was given, not a copy,
// and read it again in Backward (Dense and Conv2D do), so the caller must
// leave it unmodified until the matching Backward has returned.
//
// Output lifetime: layers recycle their output and gradient buffers across
// batches, so a tensor returned by Forward or Backward is valid only until
// the next Forward/Backward call on the same layer (and is released by
// ReleaseActivations). Callers that retain results across batches — e.g.
// evaluation loops accumulating predictions — must copy them first.
type Layer interface {
	// Forward computes the layer output. train toggles training-time
	// behaviour (e.g. batch statistics in BatchNorm).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward propagates the output gradient and accumulates parameter
	// gradients.
	Backward(dout *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's learnable parameters (possibly empty).
	Params() []*Param
	// Clone returns a deep copy of the layer, including parameter values
	// but not cached activations.
	Clone() Layer
}

// paramsBackwarder is implemented by layers that can accumulate their
// parameter gradients without computing the input gradient (Conv2D, Dense).
// Only Network.BackwardParams calls it, and only on the lowest layer that
// has parameters, where ∂L/∂in has no reader.
type paramsBackwarder interface {
	backwardParams(dout *tensor.Tensor)
}

// Network is a sequential composition of layers. The zero value is an empty
// network; use NewNetwork or Add.
type Network struct {
	layers []Layer

	// params caches the flattened Params() view; Add invalidates it. Training
	// and vector plumbing call Params() every batch, so rebuilding the slice
	// each time was a steady per-batch allocation. firstParam, built with it,
	// is the index of the first layer that has parameters.
	params     []*Param
	firstParam int
}

// NewNetwork builds a sequential network from the given layers.
func NewNetwork(layers ...Layer) *Network {
	return &Network{layers: append([]Layer(nil), layers...)}
}

// Add appends layers to the network and returns it for chaining.
func (n *Network) Add(layers ...Layer) *Network {
	n.layers = append(n.layers, layers...)
	n.params = nil
	return n
}

// Layers returns the network's layers (shared, not copied).
func (n *Network) Layers() []Layer { return n.layers }

// Forward runs the input through every layer in order. The returned tensor
// aliases the final layer's reusable scratch: it is overwritten by the next
// Forward on this network, so Clone it to retain it across batches.
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range n.layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates the output gradient through every layer in reverse and
// returns the gradient with respect to the network's input, whatever the
// network's place in a larger one (Residual's inner networks need it). Like
// Forward, the returned gradient aliases layer scratch and is only valid
// until the next Forward/Backward on this network.
func (n *Network) Backward(dout *tensor.Tensor) *tensor.Tensor {
	for i := len(n.layers) - 1; i >= 0; i-- {
		dout = n.layers[i].Backward(dout)
	}
	return dout
}

// BackwardParams is Backward for a caller that wants the parameter gradients
// only, as every training loop does: it leaves each Param.G exactly as
// Backward would, but stops at the first layer that has parameters — the
// parameter-free layers below it are not called, and that layer skips its
// own input gradient when it can (paramsBackwarder). It is for the outermost
// network of a model; nothing inside a layer may call it.
func (n *Network) BackwardParams(dout *tensor.Tensor) {
	n.Params() // builds firstParam
	if n.firstParam == len(n.layers) {
		return
	}
	for i := len(n.layers) - 1; i > n.firstParam; i-- {
		dout = n.layers[i].Backward(dout)
	}
	if pb, ok := n.layers[n.firstParam].(paramsBackwarder); ok {
		pb.backwardParams(dout)
	} else {
		n.layers[n.firstParam].Backward(dout)
	}
}

// Params returns all learnable parameters in layer order. The slice is built
// once and cached (Add invalidates it); callers must not append to or mutate
// it.
func (n *Network) Params() []*Param {
	if n.params == nil {
		n.firstParam = len(n.layers)
		for i, l := range n.layers {
			ps := l.Params()
			if len(ps) > 0 && n.firstParam == len(n.layers) {
				n.firstParam = i
			}
			n.params = append(n.params, ps...)
		}
	}
	return n.params
}

// NumParams returns the total number of scalar parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += p.W.Size()
	}
	return total
}

// ReleaseActivations drops every layer's cached activations and reusable
// scratch buffers. Call it when a model goes idle (after evaluation) so
// batch-sized state does not outlive its batch; the next Forward
// reallocates what it needs.
func (n *Network) ReleaseActivations() {
	for _, l := range n.layers {
		if r, ok := l.(ActivationReleaser); ok {
			r.ReleaseActivations()
		}
	}
}

// ZeroGrads resets every parameter gradient to zero.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		p.G.Zero()
	}
}

// Clone returns a deep copy of the network (parameters copied, activations
// not).
func (n *Network) Clone() *Network {
	out := &Network{layers: make([]Layer, len(n.layers))}
	for i, l := range n.layers {
		out.layers[i] = l.Clone()
	}
	return out
}

// ParamVector flattens all parameters into a single new []float64 in layer
// order. The layout is stable for networks of identical architecture, which
// federated aggregation relies on.
func (n *Network) ParamVector() []float64 {
	out := make([]float64, 0, n.NumParams())
	for _, p := range n.Params() {
		out = append(out, p.W.Data()...)
	}
	return out
}

// GradVector flattens all gradients into a single new []float64 in the same
// layout as ParamVector.
func (n *Network) GradVector() []float64 {
	out := make([]float64, 0, n.NumParams())
	for _, p := range n.Params() {
		out = append(out, p.G.Data()...)
	}
	return out
}

// SetParamVector loads a flat parameter vector previously produced by
// ParamVector on a network with the same architecture.
func (n *Network) SetParamVector(v []float64) error {
	want := n.NumParams()
	if len(v) != want {
		return fmt.Errorf("nn: parameter vector has %d values, network needs %d", len(v), want)
	}
	off := 0
	for _, p := range n.Params() {
		sz := p.W.Size()
		copy(p.W.Data(), v[off:off+sz])
		off += sz
	}
	return nil
}

// heInit fills w with He-normal initialization for the given fan-in.
func heInit(w *tensor.Tensor, fanIn int, rng *rand.Rand) {
	std := 0.0
	if fanIn > 0 {
		std = math.Sqrt(2.0 / float64(fanIn))
	}
	w.RandNormal(rng, 0, std)
}
