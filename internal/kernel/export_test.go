package kernel

// SetSigAction installs a disposition the signal(2) interface cannot
// express (a handler's hold mask) for the external tests.
func (p *Proc) SetSigAction(sig int, act SigAction) { p.setAction(sig, act) }
