package core

// TopScoreOf exposes a query's admission threshold for white-box tests.
func (e *Engine) TopScoreOf(id QueryID) float64 { return e.queries[id].topScore }
