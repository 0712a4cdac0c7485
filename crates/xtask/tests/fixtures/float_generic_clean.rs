//! NF-FLOAT clean twin for type argument lists: every `>` here closes
//! a generic (`Vec<f64> = …`, nested lists, turbofish, a boxed closure
//! type) and nothing allocates, so no rule has anything to say.

pub fn run(parts: &[u64], scale: Option<f64>) -> u64 {
    let first: Option<f64> = parts.first().map(|&x| x as f64);
    let nested: Option<Option<f64>> = Some(first);
    let total = parts.iter().copied().sum::<u64>();
    let lens: [Option<f64>; 2] = [scale, nested.flatten()];
    total + lens.len() as u64
}
