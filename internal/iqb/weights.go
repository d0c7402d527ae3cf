package iqb

// Weight is an integer importance rating between 0 and 5, as assigned by
// the paper's expert panel.
type Weight int

// Valid reports whether the weight is within the paper's 0..5 scale.
func (w Weight) Valid() bool { return w >= 0 && w <= 5 }

// RequirementWeights holds w(u,r): how much requirement r matters for use
// case u.
type RequirementWeights map[UseCase]map[Requirement]Weight

// Table1Weights returns the paper's Table 1 exactly: the expert-assigned
// importance of each network requirement for each use case.
//
//	Use Case            Download  Upload  Latency  Loss
//	Web Browsing            3       2        4       4
//	Video Streaming         4       2        4       4
//	Audio Streaming         4       1        3       4
//	Video Conferencing      4       4        4       4
//	Online Backup           4       4        2       4
//	Gaming                  4       4        5       4
func Table1Weights() RequirementWeights {
	return RequirementWeights{
		WebBrowsing:       {Download: 3, Upload: 2, Latency: 4, Loss: 4},
		VideoStreaming:    {Download: 4, Upload: 2, Latency: 4, Loss: 4},
		AudioStreaming:    {Download: 4, Upload: 1, Latency: 3, Loss: 4},
		VideoConferencing: {Download: 4, Upload: 4, Latency: 4, Loss: 4},
		OnlineBackup:      {Download: 4, Upload: 4, Latency: 2, Loss: 4},
		Gaming:            {Download: 4, Upload: 4, Latency: 5, Loss: 4},
	}
}

// UseCaseWeights holds w(u): how much each use case contributes to the
// overall IQB score. The poster does not publish values; the neutral
// default weighs every use case equally.
type UseCaseWeights map[UseCase]Weight

// DefaultUseCaseWeights returns equal weights for all six use cases.
func DefaultUseCaseWeights() UseCaseWeights {
	out := make(UseCaseWeights, numUseCases)
	for _, u := range AllUseCases() {
		out[u] = 1
	}
	return out
}

// DatasetWeights holds w(u,r,d): how much dataset d is trusted for
// requirement r under use case u. Keys are dataset names.
type DatasetWeights map[UseCase]map[Requirement]map[string]Weight

// EqualDatasetWeights builds w(u,r,d)=1 for every dataset capable of
// measuring each requirement — the neutral prior the poster implies when
// it motivates cross-dataset corroboration.
func EqualDatasetWeights(datasets []DatasetInfo) DatasetWeights {
	out := make(DatasetWeights, numUseCases)
	for _, u := range AllUseCases() {
		out[u] = make(map[Requirement]map[string]Weight, len(AllRequirements()))
		for _, r := range AllRequirements() {
			m := make(map[string]Weight)
			for _, d := range datasets {
				if d.Measures(r) {
					m[d.Name] = 1
				}
			}
			out[u][r] = m
		}
	}
	return out
}
