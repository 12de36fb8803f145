package node

import "minroute/internal/router"

// WithAgent runs fn on the node's routing agent under the node's lock.
func (n *Node) WithAgent(fn func(a *router.Agent)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	fn(n.agent)
}
