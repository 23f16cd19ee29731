package prog

// NameSlots returns the number of slots of p's name index.
func NameSlots(p *Program) int { return len(p.names) }
