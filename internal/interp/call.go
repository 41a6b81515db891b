package interp

import (
	"fmt"

	"repro/internal/cminus"
)

// callUser executes a user-defined function called from program code:
// scalar parameters bind by value, array/pointer parameters bind by
// reference (the argument must be a plain identifier naming an array).
// The callee's scope chain starts at its parameters, so it sees the
// globals but none of the caller's locals.
func (m *Machine) callUser(fn *cminus.FuncDecl, c *cminus.CallExpr, e *env) (Value, error) {
	if len(c.Args) != len(fn.Params) {
		return Value{}, fmt.Errorf("interp: %s expects %d args, got %d at %s",
			fn.Name, len(fn.Params), len(c.Args), c.P)
	}
	callee := &env{}
	for i, prm := range fn.Params {
		if prm.PtrDeep > 0 || len(prm.Dims) > 0 {
			id, ok := c.Args[i].(*cminus.Ident)
			if !ok {
				return Value{}, fmt.Errorf("interp: array argument %d of %s must be an identifier at %s",
					i, fn.Name, c.P)
			}
			arr := m.array(id.Name, e)
			if arr == nil {
				return Value{}, fmt.Errorf("interp: unknown array %q passed to %s at %s",
					id.Name, fn.Name, c.P)
			}
			callee.defineArray(prm.Name, arr)
			continue
		}
		v, err := m.eval(c.Args[i], e)
		if err != nil {
			return Value{}, err
		}
		callee.define(prm.Name, convert(v, cminus.IsFloatType(prm.Type)))
	}

	prevRet := m.retVal
	m.retVal = Value{}
	err := m.execBlock(fn.Body, callee, m.funcPlan(fn.Name))
	ret := m.retVal
	m.retVal = prevRet
	if err == errReturn {
		err = nil
	}
	if err != nil {
		return Value{}, err
	}
	return convert(ret, cminus.IsFloatType(fn.RetType)), nil
}
