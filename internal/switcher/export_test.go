package switcher

// Runners reports how many runners p has started, parked or not.
func (p *Pool) Runners() int { return p.made }
