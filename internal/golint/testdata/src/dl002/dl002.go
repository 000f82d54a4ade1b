// Package dl002 is a flockalint fixture: streaming pull loops must
// consult the Limits gate per batch. The fixture mirrors the physical
// package's operator shape with local stand-ins.
package dl002

type gate struct{}

func (g *gate) Check() error { return nil }

type ctx struct{ Gate *gate }

type operator interface {
	next(c *ctx) ([]int, bool, error)
}

// badOp pulls in a loop without ever consulting the gate: true positive.
type badOp struct{ rows []int }

func (o *badOp) next(c *ctx) ([]int, bool, error) { // want DL002
	var out []int
	for _, r := range o.rows {
		out = append(out, r)
	}
	return out, len(out) > 0, nil
}

// srcOp checks the gate before producing its batch: must not fire.
type srcOp struct{ rows []int }

func (o *srcOp) next(c *ctx) ([]int, bool, error) {
	if err := c.Gate.Check(); err != nil {
		return nil, false, err
	}
	var out []int
	for _, r := range o.rows {
		out = append(out, r)
	}
	return out, len(out) > 0, nil
}

// pipeOp delegates to its input, whose pull honors the contract: must
// not fire.
type pipeOp struct{ input operator }

func (o *pipeOp) next(c *ctx) ([]int, bool, error) {
	batch, ok, err := o.input.next(c)
	if err != nil || !ok {
		return nil, false, err
	}
	var out []int
	for _, r := range batch {
		out = append(out, r*2)
	}
	return out, true, nil
}

// barrierOp drains through a same-package helper that pulls from its
// input — the group/materialize shape: must not fire.
type barrierOp struct {
	input operator
	acc   []int
	built bool
}

func (o *barrierOp) build(c *ctx) error {
	for {
		batch, ok, err := o.input.next(c)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		o.acc = append(o.acc, batch...)
	}
}

func (o *barrierOp) next(c *ctx) ([]int, bool, error) {
	if !o.built {
		if err := o.build(c); err != nil {
			return nil, false, err
		}
		o.built = true
	}
	for range o.acc {
		break
	}
	return o.acc, false, nil
}

// unitOp emits once, loop-free — constant work per call: must not fire.
type unitOp struct{ done bool }

func (o *unitOp) next(c *ctx) ([]int, bool, error) {
	if o.done {
		return nil, false, nil
	}
	o.done = true
	return []int{1}, true, nil
}

// reduceOp is the decision-barrier shape: after draining its input it
// makes a second pass over what it buffered, a loop that pulls from
// nobody — so that pass consults the gate itself, once per batch-sized
// chunk: must not fire.
type reduceOp struct {
	input operator
	rows  []int
	kept  []int
	done  bool
}

func (o *reduceOp) reduce(c *ctx) error {
	for lo := 0; lo < len(o.rows); lo += 1024 {
		if err := c.Gate.Check(); err != nil {
			return err
		}
		for _, r := range o.rows[lo:min(lo+1024, len(o.rows))] {
			if r%2 == 0 {
				o.kept = append(o.kept, r)
			}
		}
	}
	return nil
}

func (o *reduceOp) next(c *ctx) ([]int, bool, error) {
	if !o.done {
		for {
			batch, ok, err := o.input.next(c)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				break
			}
			o.rows = append(o.rows, batch...)
		}
		if err := o.reduce(c); err != nil {
			return nil, false, err
		}
		o.done = true
	}
	return o.kept, false, nil
}
