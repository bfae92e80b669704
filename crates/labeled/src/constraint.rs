//! The path-constraint grammar of §2.2 and its compilation.
//!
//! `α ::= l | α·α | α∪α | α+ | α*` — regular expressions over edge
//! labels. The module provides a normalized n-ary AST, a parser
//! (accepting both the paper's symbols `·`, `∪`, and the ASCII forms
//! `.`, `|`), a classifier that recognizes the two indexable fragments
//! of Table 2 (alternation `(l1∪l2∪…)*` and concatenation
//! `(l1·l2·…)*`), and a label-set NFA for the general automaton-guided
//! evaluation of §2.3, whose ε-moves are edges of the product graph.

use reach_graph::{Label, LabelSet, LabeledGraph, VertexId};
use std::fmt;

/// Abstract syntax of a path constraint, as normalized by [`parse`]:
/// a chain has at least two terms and no term of its own kind (nested
/// chains are spliced in), and an alternation of label sets alone is
/// their union. Tree depth is therefore the constraint's nesting depth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ast {
    /// One edge whose label is in the set (`l`, or `l1∪l2∪…`).
    Labels(LabelSet),
    /// Concatenation `α1·α2·…`.
    Concat(Vec<Ast>),
    /// Alternation `α1∪α2∪…`.
    Alt(Vec<Ast>),
    /// Kleene star `α*`.
    Star(Box<Ast>),
    /// Kleene plus `α+`.
    Plus(Box<Ast>),
}

/// Which indexable fragment (if any) a constraint belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstraintKind {
    /// `(l1 ∪ l2 ∪ …)*`: answerable by every LCR index.
    Alternation(LabelSet),
    /// `(l1 · l2 · …)*`: answerable by the RLC index.
    Concatenation(Vec<Label>),
    /// Anything else: only the automaton-guided traversal applies.
    General,
}

/// A parse error with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Name(String),
    Dot,
    Union,
    Star,
    Plus,
    LParen,
    RParen,
}

fn tokenize(input: &str) -> Result<Vec<(usize, Token)>, ParseError> {
    let is_name = |c: char| c.is_alphanumeric() || c == '_';
    let mut out = Vec::new();
    let mut chars = input.char_indices().peekable();
    while let Some((pos, c)) = chars.next() {
        let token = match c {
            ' ' | '\t' | '\n' => continue,
            '·' | '.' => Token::Dot,
            '∪' | '|' => Token::Union,
            '*' => Token::Star,
            '+' => Token::Plus,
            '(' => Token::LParen,
            ')' => Token::RParen,
            c if is_name(c) => {
                let mut name = c.to_string();
                while let Some((_, c)) = chars.next_if(|&(_, c)| is_name(c)) {
                    name.push(c);
                }
                Token::Name(name)
            }
            other => {
                return Err(ParseError {
                    position: pos,
                    message: format!("unexpected character {other:?}"),
                })
            }
        };
        out.push((pos, token));
    }
    Ok(out)
}

/// The deepest nesting [`parse`] accepts: open parentheses plus
/// postfix operators along one path of the constraint. Parsing, NFA
/// compilation and dropping an [`Ast`] all recurse along such a path
/// (never along a chain), so unbounded nesting would overflow the stack.
pub const MAX_NESTING: usize = 256;

fn too_deep(position: usize) -> ParseError {
    ParseError {
        position,
        message: format!("constraint nests deeper than {MAX_NESTING} levels"),
    }
}

struct Parser<'a> {
    tokens: Vec<(usize, Token)>,
    pos: usize,
    alphabet: &'a [&'a str],
    input_len: usize,
    /// Parentheses open at the current position.
    open: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(_, t)| t)
    }

    fn here(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|&(p, _)| p)
            .unwrap_or(self.input_len)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(_, t)| t.clone());
        self.pos += 1;
        t
    }

    // Each rule returns its subtree with the subtree's nesting (parens
    // plus postfix operators on its deepest path). Chains are read in
    // a loop and built flat.

    // alt := concat ('∪' concat)*
    fn alt(&mut self) -> Result<(Ast, usize), ParseError> {
        let mut terms = Vec::new();
        let mut nesting = 0;
        loop {
            let (term, n) = self.concat()?;
            nesting = nesting.max(n);
            match term {
                Ast::Alt(inner) => terms.extend(inner),
                term => terms.push(term),
            }
            if self.peek() != Some(&Token::Union) {
                break;
            }
            self.bump();
        }
        let union = terms
            .iter()
            .try_fold(LabelSet::EMPTY, |acc, term| match term {
                Ast::Labels(set) => Some(acc.union(*set)),
                _ => None,
            });
        let ast = match union {
            Some(set) => Ast::Labels(set),
            None if terms.len() == 1 => terms.swap_remove(0),
            None => Ast::Alt(terms),
        };
        Ok((ast, nesting))
    }

    // concat := postfix ('·' postfix)*   (explicit dot required)
    fn concat(&mut self) -> Result<(Ast, usize), ParseError> {
        let mut terms = Vec::new();
        let mut nesting = 0;
        loop {
            let (term, n) = self.postfix()?;
            nesting = nesting.max(n);
            match term {
                Ast::Concat(inner) => terms.extend(inner),
                term => terms.push(term),
            }
            if self.peek() != Some(&Token::Dot) {
                break;
            }
            self.bump();
        }
        let ast = match terms.len() {
            1 => terms.swap_remove(0),
            _ => Ast::Concat(terms),
        };
        Ok((ast, nesting))
    }

    // postfix := atom ('*' | '+')*
    fn postfix(&mut self) -> Result<(Ast, usize), ParseError> {
        let (mut node, mut nesting) = self.atom()?;
        loop {
            let wrap = match self.peek() {
                Some(Token::Star) => Ast::Star,
                Some(Token::Plus) => Ast::Plus,
                _ => return Ok((node, nesting)),
            };
            nesting += 1;
            if self.open + nesting > MAX_NESTING {
                return Err(too_deep(self.here()));
            }
            self.bump();
            node = wrap(Box::new(node));
        }
    }

    // atom := label | '(' alt ')'
    fn atom(&mut self) -> Result<(Ast, usize), ParseError> {
        let position = self.here();
        match self.bump() {
            Some(Token::Name(name)) => {
                let idx = self
                    .alphabet
                    .iter()
                    .position(|&a| a == name)
                    .or_else(|| {
                        // bare numeric labels are always accepted
                        name.parse::<u8>().ok().map(|i| i as usize)
                    })
                    .ok_or_else(|| ParseError {
                        position,
                        message: format!("unknown label {name:?}"),
                    })?;
                Label::try_new(idx as u32)
                    .map(|l| (Ast::Labels(LabelSet::singleton(l)), 0))
                    .map_err(|_| ParseError {
                        position,
                        message: format!("label index {idx} out of range"),
                    })
            }
            Some(Token::LParen) => {
                if self.open == MAX_NESTING {
                    return Err(too_deep(position));
                }
                self.open += 1;
                let (inner, nesting) = self.alt()?;
                self.open -= 1;
                match self.bump() {
                    Some(Token::RParen) => Ok((inner, nesting + 1)),
                    _ => Err(ParseError {
                        position: self.here(),
                        message: "expected ')'".into(),
                    }),
                }
            }
            other => Err(ParseError {
                position,
                message: format!("expected label or '(', found {other:?}"),
            }),
        }
    }
}

/// Parses a path constraint into its normalized [`Ast`]. Label names
/// are resolved against `alphabet` (index = label id); bare numbers
/// are accepted directly.
///
/// ```
/// use reach_labeled::{parse, ConstraintKind};
/// use reach_graph::{Label, LabelSet};
///
/// let ast = parse("(friendOf ∪ follows)*", &["friendOf", "follows"]).unwrap();
/// assert_eq!(
///     ast.classify(),
///     ConstraintKind::Alternation(LabelSet::from_labels([Label(0), Label(1)]))
/// );
///
/// let ast = parse("(0 . 1)*", &[]).unwrap();
/// assert_eq!(
///     ast.classify(),
///     ConstraintKind::Concatenation(vec![Label(0), Label(1)])
/// );
/// ```
pub fn parse(input: &str, alphabet: &[&str]) -> Result<Ast, ParseError> {
    let tokens = tokenize(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        alphabet,
        input_len: input.len(),
        open: 0,
    };
    let (ast, _) = p.alt()?;
    if p.pos != p.tokens.len() {
        return Err(ParseError {
            position: p.here(),
            message: "trailing input".into(),
        });
    }
    Ok(ast)
}

impl Ast {
    /// Classifies the constraint into Table 2's indexable fragments.
    ///
    /// `(L)+` stays [`ConstraintKind::General`]: it differs from `(L)*`
    /// only at `s = t`, where it needs a cycle and an LCR index answers `true`.
    pub fn classify(&self) -> ConstraintKind {
        let Ast::Star(inner) = self else {
            return ConstraintKind::General;
        };
        let single = |term: &Ast| match term {
            Ast::Labels(set) if set.len() == 1 => set.iter().next(),
            _ => None,
        };
        match &**inner {
            Ast::Labels(set) => ConstraintKind::Alternation(*set),
            Ast::Concat(terms) => terms
                .iter()
                .map(single)
                .collect::<Option<Vec<Label>>>()
                .map_or(ConstraintKind::General, ConstraintKind::Concatenation),
            _ => ConstraintKind::General,
        }
    }
}

/// A nondeterministic automaton over edge labels: each move reads one
/// label from a set, or nothing (an ε-move). State 0 is the start and
/// state 1 the only accept state.
#[derive(Debug, Clone)]
pub struct Nfa {
    /// `moves[state]`: `(Some(labels), target)`, or `(None, target)`
    /// for an ε-move.
    moves: Vec<Vec<(Option<LabelSet>, u32)>>,
}

const START: u32 = 0;
const ACCEPT: u32 = 1;

impl Nfa {
    /// Compiles an AST. A label set is one move; a chain of `k` terms
    /// adds `k − 1` states, `*` adds one and `+` two.
    pub fn compile(ast: &Ast) -> Self {
        let mut nfa = Nfa {
            moves: vec![Vec::new(), Vec::new()],
        };
        nfa.build(ast, START, ACCEPT);
        nfa
    }

    fn new_state(&mut self) -> u32 {
        self.moves.push(Vec::new());
        (self.moves.len() - 1) as u32
    }

    fn edge(&mut self, from: u32, on: Option<LabelSet>, to: u32) {
        self.moves[from as usize].push((on, to));
    }

    /// Adds moves spelling `ast` from `from` to `to`. They leave only
    /// `from` and fresh states and enter only fresh states and `to`, so
    /// sibling terms may share both ends; a loop gets a fresh hub state,
    /// so it never feeds back into a state its siblings leave from.
    fn build(&mut self, ast: &Ast, from: u32, to: u32) {
        match ast {
            Ast::Labels(set) => self.edge(from, Some(*set), to),
            Ast::Concat(terms) => {
                let mut at = from;
                for (i, term) in terms.iter().enumerate() {
                    let next = if i + 1 == terms.len() {
                        to
                    } else {
                        self.new_state()
                    };
                    self.build(term, at, next);
                    at = next;
                }
            }
            Ast::Alt(terms) => {
                for term in terms {
                    self.build(term, from, to);
                }
            }
            Ast::Star(x) => {
                let hub = self.new_state();
                self.edge(from, None, hub);
                self.build(x, hub, hub);
                self.edge(hub, None, to);
            }
            Ast::Plus(x) => {
                let (entry, exit) = (self.new_state(), self.new_state());
                self.edge(from, None, entry);
                self.build(x, entry, exit);
                self.edge(exit, None, entry);
                self.edge(exit, None, to);
            }
        }
    }

    /// Number of NFA states.
    pub fn num_states(&self) -> usize {
        self.moves.len()
    }

    /// The start state.
    pub fn start(&self) -> u32 {
        START
    }

    /// The accept state.
    pub fn accept(&self) -> u32 {
        ACCEPT
    }

    /// Successors of `(v, q)` in the product graph `g × NFA`: an ε-move
    /// stays at `v` (label `None`); a label move follows each out-edge
    /// of `v` whose label it reads. A constraint holds for `s`–`t`
    /// exactly when `(t, accept)` is reachable from `(s, start)`.
    pub fn product_successors<'a>(
        &'a self,
        g: &'a LabeledGraph,
        v: VertexId,
        q: u32,
    ) -> impl Iterator<Item = (VertexId, u32, Option<Label>)> + 'a {
        self.moves[q as usize].iter().flat_map(move |&(on, to)| {
            let stay = on.is_none().then_some((v, to, None));
            let step = on.into_iter().flat_map(move |set| {
                g.out_edges(v)
                    .filter(move |&(_, l)| set.contains(l))
                    .map(move |(w, l)| (w, to, Some(l)))
            });
            stay.into_iter().chain(step)
        })
    }

    /// Whether the label word is in the NFA's language: product
    /// reachability over the word's positions (used by tests and the
    /// examples).
    pub fn accepts(&self, word: &[Label]) -> bool {
        let ns = self.moves.len();
        let mut seen = vec![false; (word.len() + 1) * ns];
        let mut stack = vec![(0usize, START)];
        while let Some((i, q)) = stack.pop() {
            let slot = i * ns + q as usize;
            if seen[slot] {
                continue;
            }
            seen[slot] = true;
            if i == word.len() && q == ACCEPT {
                return true;
            }
            for &(on, to) in &self.moves[q as usize] {
                match on {
                    None => stack.push((i, to)),
                    Some(set) if word.get(i).is_some_and(|&l| set.contains(l)) => {
                        stack.push((i + 1, to))
                    }
                    Some(_) => {}
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const AB: &[&str] = &["a", "b", "c"];

    fn l(i: u8) -> Label {
        Label(i)
    }

    #[test]
    fn parses_the_papers_example() {
        let ast = parse(
            "(friendOf ∪ follows)*",
            &["friendOf", "follows", "worksFor"],
        )
        .unwrap();
        match ast.classify() {
            ConstraintKind::Alternation(set) => {
                assert!(set.contains(l(0)) && set.contains(l(1)));
                assert!(!set.contains(l(2)));
            }
            other => panic!("expected alternation, got {other:?}"),
        }
    }

    #[test]
    fn parses_concatenation() {
        let ast = parse(
            "(worksFor · friendOf)*",
            &["friendOf", "follows", "worksFor"],
        )
        .unwrap();
        assert_eq!(
            ast.classify(),
            ConstraintKind::Concatenation(vec![l(2), l(0)])
        );
    }

    #[test]
    fn ascii_operators_work() {
        let a = parse("(a | b)*", AB).unwrap();
        let b = parse("(a ∪ b)*", AB).unwrap();
        assert_eq!(a, b);
        let a = parse("(a . b)*", AB).unwrap();
        let b = parse("(a · b)*", AB).unwrap();
        assert_eq!(a, b);
        // nested and re-associated chains normalize to one flat tree
        let abc = parse("(a | b | c)*", AB).unwrap();
        for same in ["((a|b)|c)*", "(a|(b|c))*", "(c ∪ (b ∪ a))*"] {
            assert_eq!(parse(same, AB).unwrap(), abc, "{same}");
        }
        let seq = parse("((a . b) . c)*", AB).unwrap();
        assert_eq!(parse("(a·(b·c))*", AB).unwrap(), seq);
        assert_eq!(
            parse("a|a", AB).unwrap(),
            Ast::Labels(LabelSet::singleton(l(0)))
        );
    }

    #[test]
    fn numeric_labels_work() {
        let ast = parse("(0 | 2)*", AB).unwrap();
        assert_eq!(
            ast.classify(),
            ConstraintKind::Alternation(LabelSet::from_labels([l(0), l(2)]))
        );
    }

    #[test]
    fn general_constraints_classify_as_general() {
        assert_eq!(parse("a", AB).unwrap().classify(), ConstraintKind::General);
        assert_eq!(
            parse("(a·b)+", AB).unwrap().classify(),
            ConstraintKind::General
        );
        assert_eq!(
            parse("(a ∪ b·c)*", AB).unwrap().classify(),
            ConstraintKind::General
        );
        assert_eq!(
            parse("a*·b", AB).unwrap().classify(),
            ConstraintKind::General
        );
        // `(L)+` rejects the empty path at s = t, unlike `(L)*`
        for plus in ["a+", "(a ∪ b)+", "((a|b)|c)+"] {
            assert_eq!(parse(plus, AB).unwrap().classify(), ConstraintKind::General);
        }
    }

    #[test]
    fn single_label_star_is_alternation() {
        assert_eq!(
            parse("a*", AB).unwrap().classify(),
            ConstraintKind::Alternation(LabelSet::singleton(l(0)))
        );
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse("", AB).is_err());
        assert!(parse("(a", AB).is_err());
        assert!(parse("a )", AB).is_err());
        assert!(parse("nope*", AB).is_err());
        assert!(parse("a $ b", AB).is_err());
        assert!(parse("99", AB).is_err(), "numeric label out of range");
        // nesting past MAX_NESTING is an error, not a stack overflow
        let parens = format!("{}0{}", "(".repeat(50_000), ")".repeat(50_000));
        let stars = format!("0{}", "*".repeat(100_000));
        for deep in [parens, stars] {
            let err = parse(&deep, AB).unwrap_err();
            assert!(err.message.contains("nests deeper"), "{err}");
        }
        // parens and postfix operators add up along one path
        let mixed = |levels: usize| format!("{}a{}", "(".repeat(levels), ")*".repeat(levels));
        assert!(parse(&mixed(MAX_NESTING / 2), AB).is_ok());
        assert!(parse(&mixed(MAX_NESTING / 2 + 1), AB).is_err());
        assert!(parse(&format!("a{}", "+".repeat(MAX_NESTING)), AB).is_ok());
        let at_limit = format!("{}a{}", "(".repeat(MAX_NESTING), ")".repeat(MAX_NESTING));
        assert!(parse(&at_limit, AB).is_ok());
        let past = format!("({at_limit})");
        assert!(parse(&past, AB).is_err());
        // siblings do not add up
        assert!(parse(&format!("{at_limit}·{at_limit}"), AB).is_ok());
    }

    #[test]
    fn precedence_star_binds_tighter_than_concat_than_alt() {
        // a ∪ b·c* == a ∪ (b·(c*))
        let ast = parse("a ∪ b·c*", AB).unwrap();
        let label = |i| Ast::Labels(LabelSet::singleton(l(i)));
        let expect = Ast::Alt(vec![
            label(0),
            Ast::Concat(vec![label(1), Ast::Star(Box::new(label(2)))]),
        ]);
        assert_eq!(ast, expect);
        // nested forms classify and answer as their flat equivalents
        let all = LabelSet::from_labels([l(0), l(1), l(2)]);
        for expr in ["((a|b)|c)*", "(a|(b|c))*"] {
            let ast = parse(expr, AB).unwrap();
            assert_eq!(ast.classify(), ConstraintKind::Alternation(all), "{expr}");
            assert!(Nfa::compile(&ast).accepts(&[l(2), l(0), l(1)]), "{expr}");
        }
        let ast = parse("(a·(b·c))*", AB).unwrap();
        assert_eq!(
            ast.classify(),
            ConstraintKind::Concatenation(vec![l(0), l(1), l(2)])
        );
        let nfa = Nfa::compile(&ast);
        assert!(nfa.accepts(&[l(0), l(1), l(2), l(0), l(1), l(2)]));
        assert!(!nfa.accepts(&[l(0), l(1)]));
        let ast = parse("(a·(b|c))*", AB).unwrap();
        assert_eq!(ast.classify(), ConstraintKind::General);
        let nfa = Nfa::compile(&ast);
        assert!(nfa.accepts(&[l(0), l(2), l(0), l(1)]) && !nfa.accepts(&[l(0), l(0)]));
        let ast = parse("a|a", AB).unwrap();
        assert_eq!(ast.classify(), ConstraintKind::General);
        let nfa = Nfa::compile(&ast);
        assert_eq!(nfa.num_states(), 2);
        assert!(nfa.accepts(&[l(0)]) && !nfa.accepts(&[]) && !nfa.accepts(&[l(0), l(0)]));
    }

    #[test]
    fn million_term_chains_run_on_a_small_stack() {
        let n = 1_000_000;
        let concat = format!("({})*", vec!["0·1"; n / 2].join("·"));
        let labels = vec!["0"; n].join("|");
        let alt = vec!["0·1"; n].join("∪");
        let worker = std::thread::Builder::new().stack_size(64 * 1024);
        let run = move || {
            for chain in [concat, labels, alt] {
                let ast = parse(&chain, AB).unwrap();
                let kind = ast.classify();
                let nfa = Nfa::compile(&ast);
                assert!(nfa.num_states() <= n + 2);
                drop((ast, kind, nfa));
            }
        };
        worker.spawn(run).unwrap().join().unwrap();
    }

    #[test]
    fn nfa_accepts_expected_words() {
        let nfa = Nfa::compile(&parse("(a·b)*", AB).unwrap());
        assert!(nfa.accepts(&[]));
        assert!(nfa.accepts(&[l(0), l(1)]));
        assert!(nfa.accepts(&[l(0), l(1), l(0), l(1)]));
        assert!(!nfa.accepts(&[l(0)]));
        assert!(!nfa.accepts(&[l(1), l(0)]));

        let nfa = Nfa::compile(&parse("(a ∪ b)+", AB).unwrap());
        assert!(!nfa.accepts(&[]));
        assert!(nfa.accepts(&[l(0)]));
        assert!(nfa.accepts(&[l(1), l(0), l(1)]));
        assert!(!nfa.accepts(&[l(2)]));

        let nfa = Nfa::compile(&parse("a·b* ∪ c", AB).unwrap());
        assert!(nfa.accepts(&[l(0)]));
        assert!(nfa.accepts(&[l(0), l(1), l(1)]));
        assert!(nfa.accepts(&[l(2)]));
        assert!(!nfa.accepts(&[l(1)]));
    }
}
