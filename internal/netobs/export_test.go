package netobs

import "sort"

// SortedLinks returns the tap's links in canonical (from, to) order.
func (lt *LinkTap) SortedLinks() []Link {
	if lt == nil {
		return nil
	}
	lt.mu.RLock()
	out := make([]Link, 0, len(lt.links))
	for l := range lt.links {
		out = append(out, l)
	}
	lt.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}
