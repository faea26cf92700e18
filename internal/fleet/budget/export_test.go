package budget

// BenefitScore exposes the benefit density to the external tests' reference
// policies.
var BenefitScore = benefitScore
