package nn

import "fmt"

// Stateful is implemented by layers carrying non-learnable state that must
// travel with the model when it is serialized or exchanged in a federation
// — BatchNorm running statistics being the canonical case. State is
// aggregated linearly alongside parameters (a weighted average of running
// statistics is itself a sensible running statistic).
type Stateful interface {
	// State returns a copy of the layer's non-learnable state.
	State() []float64
	// SetStateVec loads state previously produced by State.
	SetStateVec(v []float64) error
}

var (
	_ Stateful = (*BatchNorm2D)(nil)
	_ Stateful = (*Residual)(nil)
	_ Stateful = (*Network)(nil)
)

// State implements Stateful for BatchNorm2D: running mean followed by
// running variance.
func (b *BatchNorm2D) State() []float64 {
	out := make([]float64, 0, 2*b.C)
	out = append(out, b.runMean...)
	out = append(out, b.runVar...)
	return out
}

// SetStateVec implements Stateful for BatchNorm2D.
func (b *BatchNorm2D) SetStateVec(v []float64) error {
	if len(v) != 2*b.C {
		return fmt.Errorf("nn: BatchNorm2D state needs %d values, got %d", 2*b.C, len(v))
	}
	copy(b.runMean, v[:b.C])
	copy(b.runVar, v[b.C:])
	return nil
}

// State implements Stateful for Residual, concatenating the state of its
// main and skip paths.
func (r *Residual) State() []float64 {
	out := r.main.State()
	if r.skip != nil {
		out = append(out, r.skip.State()...)
	}
	return out
}

// SetStateVec implements Stateful for Residual.
func (r *Residual) SetStateVec(v []float64) error {
	n := len(r.main.State())
	if r.skip == nil {
		if len(v) != n {
			return fmt.Errorf("nn: Residual state needs %d values, got %d", n, len(v))
		}
		return r.main.SetStateVec(v)
	}
	m := len(r.skip.State())
	if len(v) != n+m {
		return fmt.Errorf("nn: Residual state needs %d values, got %d", n+m, len(v))
	}
	if err := r.main.SetStateVec(v[:n]); err != nil {
		return err
	}
	return r.skip.SetStateVec(v[n:])
}

// State implements Stateful for Network, concatenating the state of every
// stateful layer in order.
func (n *Network) State() []float64 {
	var out []float64
	for _, l := range n.layers {
		if s, ok := l.(Stateful); ok {
			out = append(out, s.State()...)
		}
	}
	return out
}

// SetStateVec implements Stateful for Network.
func (n *Network) SetStateVec(v []float64) error {
	off := 0
	for _, l := range n.layers {
		s, ok := l.(Stateful)
		if !ok {
			continue
		}
		size := len(s.State())
		if off+size > len(v) {
			return fmt.Errorf("nn: state vector too short: need > %d values, got %d", off+size, len(v))
		}
		if err := s.SetStateVec(v[off : off+size]); err != nil {
			return err
		}
		off += size
	}
	if off != len(v) {
		return fmt.Errorf("nn: state vector has %d values, network consumed %d", len(v), off)
	}
	return nil
}

// StateSize returns the total number of non-learnable state values.
func (n *Network) StateSize() int { return len(n.State()) }

// StateVector returns the full model state — learnable parameters followed
// by non-learnable layer state — as a single flat vector. This is the
// representation exchanged in the federation.
func (n *Network) StateVector() []float64 {
	return append(n.ParamVector(), n.State()...)
}

// SetStateVector loads a vector previously produced by StateVector on a
// network of identical architecture.
func (n *Network) SetStateVector(v []float64) error {
	np := n.NumParams()
	if len(v) < np {
		return fmt.Errorf("nn: state vector has %d values, need ≥ %d params", len(v), np)
	}
	if err := n.SetParamVector(v[:np]); err != nil {
		return err
	}
	return n.SetStateVec(v[np:])
}
