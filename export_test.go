package btpan

// Piconet returns piconet p's campaign result.
func (r *ScatternetResult) Piconet(p int) *CampaignResult { return r.Piconets[p] }
