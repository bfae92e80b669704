//! The path-constraint grammar of §2.2 and its compilation.
//!
//! `α ::= l | α·α | α∪α | α+ | α*` — regular expressions over edge
//! labels. The module provides the AST, a parser (accepting both the
//! paper's symbols `·`, `∪`, and the ASCII forms `.`, `|`), a
//! classifier that recognizes the two indexable fragments of Table 2
//! (alternation `(l1∪l2∪…)*` and concatenation `(l1·l2·…)*`), and a
//! Thompson NFA for the general automaton-guided evaluation of §2.3.

use reach_graph::{Label, LabelSet};
use std::fmt;

/// Abstract syntax of a path constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ast {
    /// A single edge label.
    Label(Label),
    /// Concatenation `α·β`.
    Concat(Box<Ast>, Box<Ast>),
    /// Alternation `α∪β`.
    Alt(Box<Ast>, Box<Ast>),
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
    let mut out = Vec::new();
    let mut chars = input.char_indices().peekable();
    while let Some(&(pos, c)) = chars.peek() {
        match c {
            ' ' | '\t' | '\n' => {
                chars.next();
            }
            '·' | '.' => {
                chars.next();
                out.push((pos, Token::Dot));
            }
            '∪' | '|' => {
                chars.next();
                out.push((pos, Token::Union));
            }
            '*' => {
                chars.next();
                out.push((pos, Token::Star));
            }
            '+' => {
                chars.next();
                out.push((pos, Token::Plus));
            }
            '(' => {
                chars.next();
                out.push((pos, Token::LParen));
            }
            ')' => {
                chars.next();
                out.push((pos, Token::RParen));
            }
            c if c.is_alphanumeric() || c == '_' => {
                let mut name = String::new();
                while let Some(&(_, c)) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' {
                        name.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push((pos, Token::Name(name)));
            }
            other => {
                return Err(ParseError {
                    position: pos,
                    message: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(out)
}

/// The deepest nesting [`parse`] accepts: open parentheses plus
/// postfix operators along one path of the constraint. Parsing, NFA
/// compilation and dropping an [`Ast`] all recurse along such a path,
/// so unbounded nesting would overflow the stack.
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
    // plus postfix operators on its deepest path).

    // alt := concat ('∪' concat)*
    fn alt(&mut self) -> Result<(Ast, usize), ParseError> {
        let (mut lhs, mut nesting) = self.concat()?;
        while self.peek() == Some(&Token::Union) {
            self.bump();
            let (rhs, n) = self.concat()?;
            lhs = Ast::Alt(Box::new(lhs), Box::new(rhs));
            nesting = nesting.max(n);
        }
        Ok((lhs, nesting))
    }

    // concat := postfix ('·' postfix)*   (explicit dot required)
    fn concat(&mut self) -> Result<(Ast, usize), ParseError> {
        let (mut lhs, mut nesting) = self.postfix()?;
        while self.peek() == Some(&Token::Dot) {
            self.bump();
            let (rhs, n) = self.postfix()?;
            lhs = Ast::Concat(Box::new(lhs), Box::new(rhs));
            nesting = nesting.max(n);
        }
        Ok((lhs, nesting))
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
                    .map(|l| (Ast::Label(l), 0))
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

/// Parses a path constraint. Label names are resolved against
/// `alphabet` (index = label id); bare numbers are accepted directly.
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
    pub fn classify(&self) -> ConstraintKind {
        if let Ast::Star(inner) = self {
            if let Some(labels) = inner.as_label_alternation() {
                return ConstraintKind::Alternation(labels);
            }
            if let Some(seq) = inner.as_label_concatenation() {
                return ConstraintKind::Concatenation(seq);
            }
        }
        ConstraintKind::General
    }

    /// `l1 ∪ l2 ∪ …` of bare labels, as a set.
    fn as_label_alternation(&self) -> Option<LabelSet> {
        match self {
            Ast::Label(l) => Some(LabelSet::singleton(*l)),
            Ast::Alt(a, b) => Some(a.as_label_alternation()?.union(b.as_label_alternation()?)),
            _ => None,
        }
    }

    /// `l1 · l2 · …` of bare labels, as a sequence.
    fn as_label_concatenation(&self) -> Option<Vec<Label>> {
        match self {
            Ast::Label(l) => Some(vec![*l]),
            Ast::Concat(a, b) => {
                let mut seq = a.as_label_concatenation()?;
                seq.extend(b.as_label_concatenation()?);
                Some(seq)
            }
            _ => None,
        }
    }
}

/// A Thompson NFA over edge labels, for automaton-guided traversal.
#[derive(Debug, Clone)]
pub struct Nfa {
    /// `transitions[state]`: `(label, target)`; `None` label = ε.
    transitions: Vec<Vec<(Option<Label>, u32)>>,
    start: u32,
    accept: u32,
}

impl Nfa {
    /// Compiles an AST with Thompson's construction.
    pub fn compile(ast: &Ast) -> Self {
        let mut nfa = Nfa {
            transitions: Vec::new(),
            start: 0,
            accept: 0,
        };
        let (s, a) = nfa.build(ast);
        nfa.start = s;
        nfa.accept = a;
        nfa
    }

    fn new_state(&mut self) -> u32 {
        self.transitions.push(Vec::new());
        (self.transitions.len() - 1) as u32
    }

    fn edge(&mut self, from: u32, label: Option<Label>, to: u32) {
        self.transitions[from as usize].push((label, to));
    }

    fn build(&mut self, ast: &Ast) -> (u32, u32) {
        match ast {
            Ast::Label(l) => {
                let s = self.new_state();
                let a = self.new_state();
                self.edge(s, Some(*l), a);
                (s, a)
            }
            Ast::Concat(x, y) => {
                let (sx, ax) = self.build(x);
                let (sy, ay) = self.build(y);
                self.edge(ax, None, sy);
                (sx, ay)
            }
            Ast::Alt(x, y) => {
                let s = self.new_state();
                let a = self.new_state();
                let (sx, ax) = self.build(x);
                let (sy, ay) = self.build(y);
                self.edge(s, None, sx);
                self.edge(s, None, sy);
                self.edge(ax, None, a);
                self.edge(ay, None, a);
                (s, a)
            }
            Ast::Star(x) => {
                let s = self.new_state();
                let a = self.new_state();
                let (sx, ax) = self.build(x);
                self.edge(s, None, sx);
                self.edge(s, None, a);
                self.edge(ax, None, sx);
                self.edge(ax, None, a);
                (s, a)
            }
            Ast::Plus(x) => {
                let (sx, ax) = self.build(x);
                let a = self.new_state();
                self.edge(ax, None, sx);
                self.edge(ax, None, a);
                (sx, a)
            }
        }
    }

    /// Number of NFA states.
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// The start state.
    pub fn start(&self) -> u32 {
        self.start
    }

    /// Whether `state` is the accept state.
    pub fn is_accept(&self, state: u32) -> bool {
        state == self.accept
    }

    /// ε-closure of a state set (deduplicated, sorted).
    pub fn epsilon_closure(&self, states: &mut Vec<u32>) {
        let mut seen = vec![false; self.transitions.len()];
        for &s in states.iter() {
            seen[s as usize] = true;
        }
        let mut head = 0;
        while head < states.len() {
            let s = states[head];
            head += 1;
            for &(label, to) in &self.transitions[s as usize] {
                if label.is_none() && !seen[to as usize] {
                    seen[to as usize] = true;
                    states.push(to);
                }
            }
        }
        states.sort_unstable();
    }

    /// The states reachable from `state` by consuming `label`
    /// (before ε-closure).
    pub fn step(&self, state: u32, label: Label) -> impl Iterator<Item = u32> + '_ {
        self.transitions[state as usize]
            .iter()
            .filter(move |&&(l, _)| l == Some(label))
            .map(|&(_, to)| to)
    }

    /// Whether the label word is in the NFA's language (used by tests
    /// and the online evaluator).
    pub fn accepts(&self, word: &[Label]) -> bool {
        let mut current = vec![self.start];
        self.epsilon_closure(&mut current);
        for &l in word {
            let mut next: Vec<u32> = current.iter().flat_map(|&s| self.step(s, l)).collect();
            next.sort_unstable();
            next.dedup();
            self.epsilon_closure(&mut next);
            current = next;
            if current.is_empty() {
                return false;
            }
        }
        current.iter().any(|&s| self.is_accept(s))
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
        let expect = Ast::Alt(
            Box::new(Ast::Label(l(0))),
            Box::new(Ast::Concat(
                Box::new(Ast::Label(l(1))),
                Box::new(Ast::Star(Box::new(Ast::Label(l(2))))),
            )),
        );
        assert_eq!(ast, expect);
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
