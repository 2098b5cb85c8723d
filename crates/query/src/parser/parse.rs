//! Recursive-descent parser producing [`ExplorationQuery`] +
//! [`AccuracySpec`] from the concrete syntax.

use apex_data::{CmpOp, Predicate, Value};

use super::lexer::{lex, LexError, Token};
use crate::{AccuracyError, AccuracySpec, ExplorationQuery, QueryKind};

/// The deepest predicate the parser builds. An atom is one level, and
/// each `NOT`, each pair of parentheses and each further term of an
/// `AND`/`OR` chain adds one (`a AND b AND c` is the left-deep
/// `(a AND b) AND c`, three levels). Evaluating, hashing, compiling and
/// dropping a predicate all recurse on its tree, so the limit is what
/// keeps one request body from overflowing a worker's stack; the parser
/// counts while it reads and refuses at the first level past it.
pub const MAX_PREDICATE_DEPTH: usize = 256;

/// A fully parsed query statement.
#[derive(Debug, Clone)]
pub struct ParsedQuery {
    /// The exploration query (workload + kind).
    pub query: ExplorationQuery,
    /// The accuracy requirement, when the statement carries an
    /// `ERROR … CONFIDENCE …` clause.
    pub accuracy: Option<AccuracySpec>,
}

/// Parse failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Tokenization failed.
    Lex(LexError),
    /// Unexpected token (with index into the token stream).
    Unexpected {
        /// Index of the offending token.
        at: usize,
        /// Description of what was found.
        found: String,
        /// Description of what the parser expected.
        expected: &'static str,
    },
    /// Input ended too early.
    UnexpectedEnd {
        /// What the parser expected next.
        expected: &'static str,
    },
    /// The accuracy clause carried invalid numbers.
    Accuracy(AccuracyError),
    /// `LIMIT k` with a non-positive or non-integral `k`.
    BadLimit(f64),
    /// A predicate nests deeper than [`MAX_PREDICATE_DEPTH`].
    TooDeep,
}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

impl From<AccuracyError> for ParseError {
    fn from(e: AccuracyError) -> Self {
        ParseError::Accuracy(e)
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Unexpected {
                at,
                found,
                expected,
            } => {
                write!(
                    f,
                    "unexpected token {found} at position {at}, expected {expected}"
                )
            }
            ParseError::UnexpectedEnd { expected } => {
                write!(f, "unexpected end of input, expected {expected}")
            }
            ParseError::Accuracy(e) => write!(f, "invalid accuracy clause: {e}"),
            ParseError::BadLimit(k) => write!(f, "LIMIT must be a positive integer, got {k}"),
            ParseError::TooDeep => write!(
                f,
                "predicate nests deeper than {MAX_PREDICATE_DEPTH} levels"
            ),
        }
    }
}

impl std::error::Error for ParseError {}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

/// An operator waiting on the predicate parser's stack.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Not,
    Paren,
    And,
    Or,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Consumes the token that is not what the grammar `expected` there,
    /// and names it (or the end of input) in the error.
    fn unexpected(&mut self, expected: &'static str) -> ParseError {
        match self.next() {
            Some(t) => ParseError::Unexpected {
                at: self.pos - 1,
                found: format!("{t:?}"),
                expected,
            },
            None => ParseError::UnexpectedEnd { expected },
        }
    }

    fn expect(&mut self, want: &Token, expected: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.unexpected(expected))
        }
    }

    fn expect_number(&mut self, expected: &'static str) -> Result<f64, ParseError> {
        match self.peek() {
            Some(&Token::Number(v)) => {
                self.pos += 1;
                Ok(v)
            }
            _ => Err(self.unexpected(expected)),
        }
    }

    fn expect_ident(&mut self, expected: &'static str) -> Result<String, ParseError> {
        match self.peek() {
            Some(Token::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.unexpected(expected)),
        }
    }

    /// `COUNT ( * )`
    fn expect_count_star(&mut self) -> Result<(), ParseError> {
        self.expect(&Token::Count, "COUNT")?;
        self.expect(&Token::LParen, "(")?;
        self.expect(&Token::Star, "*")?;
        self.expect(&Token::RParen, ")")
    }

    /// Full statement.
    fn statement(&mut self) -> Result<ParsedQuery, ParseError> {
        self.expect(&Token::Bin, "BIN")?;
        // The table designator ("D" in the paper) is a bare identifier.
        let _table = self.expect_ident("table name")?;
        self.expect(&Token::On, "ON")?;
        self.expect_count_star()?;
        self.expect(&Token::Where, "WHERE")?;
        // `W = { ... }` — the `W =` prefix is optional syntax sugar.
        if matches!(self.peek(), Some(Token::Ident(w)) if w.eq_ignore_ascii_case("w")) {
            self.next();
            self.expect(&Token::Eq, "=")?;
        }
        self.expect(&Token::LBrace, "{")?;
        let mut workload = vec![self.predicate()?];
        while matches!(self.peek(), Some(Token::Comma)) {
            self.next();
            workload.push(self.predicate()?);
        }
        self.expect(&Token::RBrace, "}")?;

        // Optional HAVING.
        let mut kind = QueryKind::Wcq;
        if matches!(self.peek(), Some(Token::Having)) {
            self.next();
            self.expect_count_star()?;
            self.expect(&Token::Gt, ">")?;
            let c = self.expect_number("threshold")?;
            kind = QueryKind::Icq { threshold: c };
        }

        // Optional ORDER BY ... LIMIT.
        if matches!(self.peek(), Some(Token::Order)) {
            self.next();
            self.expect(&Token::By, "BY")?;
            self.expect_count_star()?;
            if matches!(self.peek(), Some(Token::Desc)) {
                self.next();
            }
            self.expect(&Token::Limit, "LIMIT")?;
            let k = self.expect_number("limit")?;
            if k < 1.0 || k.fract() != 0.0 {
                return Err(ParseError::BadLimit(k));
            }
            kind = QueryKind::Tcq { k: k as usize };
        }

        // Optional ERROR α CONFIDENCE 1-β.
        let accuracy = if matches!(self.peek(), Some(Token::ErrorKw)) {
            self.next();
            let alpha = self.expect_number("alpha")?;
            self.expect(&Token::Confidence, "CONFIDENCE")?;
            let conf = self.expect_number("confidence")?;
            Some(AccuracySpec::new(alpha, 1.0 - conf)?)
        } else {
            None
        };

        // Optional trailing semicolon, then end of input.
        if matches!(self.peek(), Some(Token::Semicolon)) {
            self.next();
        }
        if let Some(t) = self.peek() {
            return Err(ParseError::Unexpected {
                at: self.pos,
                found: format!("{t:?}"),
                expected: "end of statement",
            });
        }

        Ok(ParsedQuery {
            query: ExplorationQuery { workload, kind },
            accuracy,
        })
    }

    /// Predicate grammar (precedence: NOT > AND > OR; parentheses group).
    /// Parsed with an operand stack and an operator stack instead of by
    /// recursion, so no input runs the parser out of stack; each operand
    /// carries its depth, checked against [`MAX_PREDICATE_DEPTH`] as it is
    /// built.
    fn predicate(&mut self) -> Result<Predicate, ParseError> {
        let mut operands: Vec<(Predicate, usize)> = Vec::new();
        let mut ops: Vec<Op> = Vec::new();
        // The `NOT`s and open parentheses on `ops`.
        let mut nest = 0;
        loop {
            // An operand: any `NOT`s and `(`s, then `TRUE` or an atom.
            while let Some(op) = match self.peek() {
                Some(Token::Not) => Some(Op::Not),
                Some(Token::LParen) => Some(Op::Paren),
                _ => None,
            } {
                self.next();
                nest += 1;
                // Whatever follows is at least one level deep.
                checked_depth(nest + 1)?;
                ops.push(op);
            }
            let operand = if matches!(self.peek(), Some(Token::True)) {
                self.next();
                (Predicate::True, 1)
            } else {
                self.atom()?
            };
            operands.push(operand);
            // Then the `NOT`s it closes, any `)`s, and the next operator.
            loop {
                while ops.last() == Some(&Op::Not) {
                    ops.pop();
                    nest -= 1;
                    reduce(&mut operands, Op::Not)?;
                }
                let next = match self.peek() {
                    Some(Token::And) => Some(Op::And),
                    Some(Token::Or) => Some(Op::Or),
                    Some(Token::RParen) => Some(Op::Paren),
                    _ => None,
                };
                // Fold every pending AND and OR that binds at least as
                // tightly as `next`: left-associative, AND over OR.
                while let Some(&top @ (Op::And | Op::Or)) = ops.last() {
                    if next == Some(Op::And) && top == Op::Or {
                        break;
                    }
                    ops.pop();
                    reduce(&mut operands, top)?;
                }
                match next {
                    Some(Op::Paren) if ops.last() == Some(&Op::Paren) => {
                        self.next();
                        ops.pop();
                        nest -= 1;
                        reduce(&mut operands, Op::Paren)?;
                    }
                    Some(op @ (Op::And | Op::Or)) => {
                        self.next();
                        ops.push(op);
                        break;
                    }
                    _ if ops.is_empty() => {
                        let (predicate, _) = operands.pop().expect("one operand is left");
                        return Ok(predicate);
                    }
                    // A parenthesis is still open.
                    _ => return Err(self.unexpected(")")),
                }
            }
        }
    }

    /// `attr op literal | attr IN [lo, hi) | attr IS [NOT] NULL`, with its
    /// depth (`IS NOT NULL` is a `NOT` over `IS NULL`).
    fn atom(&mut self) -> Result<(Predicate, usize), ParseError> {
        let attr = self.expect_ident("attribute name")?;
        let op = match self.peek() {
            Some(Token::Eq) => CmpOp::Eq,
            Some(Token::Ne) => CmpOp::Ne,
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Ge) => CmpOp::Ge,
            Some(Token::Is) => {
                self.next();
                let negated = matches!(self.peek(), Some(Token::Not));
                if negated {
                    self.next();
                }
                self.expect(&Token::Null, "NULL")?;
                let p = Predicate::is_null(attr);
                return Ok(if negated { (p.not(), 2) } else { (p, 1) });
            }
            Some(Token::In) => {
                self.next();
                self.expect(&Token::LBracket, "[")?;
                let lo = self.expect_number("range lower bound")?;
                self.expect(&Token::Comma, ",")?;
                let hi = self.expect_number("range upper bound")?;
                self.expect(&Token::RParen, ")")?;
                return Ok((Predicate::range(attr, lo, hi), 1));
            }
            Some(_) => return Err(self.unexpected("comparison operator, IS, or IN")),
            None => {
                return Err(ParseError::UnexpectedEnd {
                    expected: "comparison operator",
                })
            }
        };
        self.next();
        let value = self.literal()?;
        Ok((Predicate::Cmp { attr, op, value }, 1))
    }

    /// Number, string, or boolean literal. Integral numbers become
    /// [`Value::Int`] so that integer-attribute comparisons stay exact.
    fn literal(&mut self) -> Result<Value, ParseError> {
        match self.next() {
            Some(Token::Number(v)) => {
                if v.fract() == 0.0 && v.abs() < 9.0e15 {
                    Ok(Value::Int(v as i64))
                } else {
                    Ok(Value::Float(v))
                }
            }
            Some(Token::Str(s)) => Ok(Value::Str(s)),
            Some(Token::True) => Ok(Value::Bool(true)),
            Some(Token::False) => Ok(Value::Bool(false)),
            Some(t) => Err(ParseError::Unexpected {
                at: self.pos - 1,
                found: format!("{t:?}"),
                expected: "literal",
            }),
            None => Err(ParseError::UnexpectedEnd {
                expected: "literal",
            }),
        }
    }
}

/// Applies `op` to the operand on top of the stack (for AND and OR, to
/// the top two): the result is one level deeper than its deepest input.
fn reduce(operands: &mut Vec<(Predicate, usize)>, op: Op) -> Result<(), ParseError> {
    let (right, mut depth) = operands.pop().expect("an operand");
    let predicate = match op {
        Op::Not => right.not(),
        Op::Paren => right,
        Op::And | Op::Or => {
            let (left, left_depth) = operands.pop().expect("a left operand");
            depth = depth.max(left_depth);
            if op == Op::And {
                left.and(right)
            } else {
                left.or(right)
            }
        }
    };
    operands.push((predicate, checked_depth(depth + 1)?));
    Ok(())
}

/// `depth` if it is within [`MAX_PREDICATE_DEPTH`].
fn checked_depth(depth: usize) -> Result<usize, ParseError> {
    if depth > MAX_PREDICATE_DEPTH {
        Err(ParseError::TooDeep)
    } else {
        Ok(depth)
    }
}

/// Parses a full query statement.
pub fn parse_query(input: &str) -> Result<ParsedQuery, ParseError> {
    let tokens = lex(input)?;
    Parser { tokens, pos: 0 }.statement()
}

/// Parses a standalone predicate (useful for building workloads from
/// strings in tests and examples).
pub fn parse_predicate(input: &str) -> Result<Predicate, ParseError> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let pred = p.predicate()?;
    if let Some(t) = p.peek() {
        return Err(ParseError::Unexpected {
            at: p.pos,
            found: format!("{t:?}"),
            expected: "end of predicate",
        });
    }
    Ok(pred)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_wcq() {
        let q = parse_query(
            "BIN D ON COUNT(*) WHERE W = { age > 50 AND state = 'AL', age > 50 AND state = 'WY' };",
        )
        .unwrap();
        assert_eq!(q.query.kind, QueryKind::Wcq);
        assert_eq!(q.query.len(), 2);
        assert!(q.accuracy.is_none());
    }

    #[test]
    fn parses_icq_with_accuracy() {
        let q = parse_query(
            "BIN D ON COUNT(*) WHERE W = { state = 'AL', state = 'WY' } \
             HAVING COUNT(*) > 5000000 ERROR 100 CONFIDENCE 0.9995;",
        )
        .unwrap();
        assert_eq!(
            q.query.kind,
            QueryKind::Icq {
                threshold: 5_000_000.0
            }
        );
        let acc = q.accuracy.unwrap();
        assert_eq!(acc.alpha(), 100.0);
        assert!((acc.beta() - 0.0005).abs() < 1e-12);
    }

    #[test]
    fn parses_tcq() {
        let q = parse_query(
            "BIN D ON COUNT(*) WHERE W = { age = 1, age = 2, age = 3 } \
             ORDER BY COUNT(*) DESC LIMIT 2;",
        )
        .unwrap();
        assert_eq!(q.query.kind, QueryKind::Tcq { k: 2 });
    }

    #[test]
    fn parses_without_w_eq_prefix() {
        let q = parse_query("BIN D ON COUNT(*) WHERE { x < 5 };").unwrap();
        assert_eq!(q.query.len(), 1);
    }

    #[test]
    fn parses_range_and_null_predicates() {
        let p = parse_predicate("\"capital gain\" IN [0, 50) AND sex IS NOT NULL").unwrap();
        let s = format!("{p}");
        assert!(s.contains("capital gain IN [0, 50)"), "{s}");
        assert!(s.contains("NOT (sex IS NULL)"), "{s}");
    }

    #[test]
    fn precedence_not_and_or() {
        // NOT a AND b OR c == ((NOT a) AND b) OR c
        let p = parse_predicate("NOT x = 1 AND y = 2 OR z = 3").unwrap();
        assert_eq!(format!("{p}"), "((NOT (x = 1) AND y = 2) OR z = 3)");
    }

    #[test]
    fn parenthesized_grouping() {
        let p = parse_predicate("x = 1 AND (y = 2 OR z = 3)").unwrap();
        assert_eq!(format!("{p}"), "(x = 1 AND (y = 2 OR z = 3))");
    }

    #[test]
    fn integral_literals_are_ints() {
        let p = parse_predicate("x = 5").unwrap();
        assert_eq!(p, Predicate::eq("x", 5_i64));
        let p = parse_predicate("x = 5.5").unwrap();
        assert_eq!(p, Predicate::eq("x", 5.5));
        let p = parse_predicate("b = TRUE").unwrap();
        assert_eq!(p, Predicate::eq("b", true));
    }

    #[test]
    fn bad_limit_rejected() {
        let r = parse_query("BIN D ON COUNT(*) WHERE { x = 1 } ORDER BY COUNT(*) LIMIT 0;");
        assert!(matches!(r, Err(ParseError::BadLimit(_))));
        let r = parse_query("BIN D ON COUNT(*) WHERE { x = 1 } ORDER BY COUNT(*) LIMIT 2.5;");
        assert!(matches!(r, Err(ParseError::BadLimit(_))));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let r = parse_query("BIN D ON COUNT(*) WHERE { x = 1 }; banana");
        assert!(matches!(r, Err(ParseError::Unexpected { .. })));
    }

    #[test]
    fn invalid_confidence_rejected() {
        let r = parse_query("BIN D ON COUNT(*) WHERE { x = 1 } ERROR 10 CONFIDENCE 1.5;");
        assert!(matches!(r, Err(ParseError::Accuracy(_))));
    }

    #[test]
    fn missing_pieces_reported() {
        assert!(matches!(
            parse_query("BIN D ON"),
            Err(ParseError::UnexpectedEnd { .. })
        ));
        assert!(parse_query("SELECT * FROM t").is_err());
    }

    /// `NOT` `n` times around one atom: `n + 1` levels.
    fn nots(n: usize) -> String {
        format!("{}x = 1", "NOT ".repeat(n))
    }

    /// An `AND` chain of `n` atoms: `n` levels.
    fn chain(n: usize) -> String {
        vec!["x = 1"; n].join(" AND ")
    }

    /// `n` pairs of parentheses around one atom: `n + 1` levels.
    fn parens(n: usize) -> String {
        format!("{}x = 1{}", "(".repeat(n), ")".repeat(n))
    }

    #[test]
    fn predicates_up_to_the_depth_limit_parse() {
        let max = MAX_PREDICATE_DEPTH;
        for text in [nots(max - 1), chain(max), parens(max - 1)] {
            let q = parse_query(&format!("BIN D ON COUNT(*) WHERE {{ {text}, {text} }};"))
                .unwrap_or_else(|e| panic!("{e}: {}", &text[..40]));
            assert_eq!(q.query.len(), 2);
        }
        // An OR of AND chains counts the deeper side.
        let mixed = format!("{} OR x = 2", chain(max - 1));
        assert!(parse_predicate(&mixed).is_ok());
        // `IS NOT NULL` is two levels.
        let is_not_null = format!("{}x IS NOT NULL", "NOT ".repeat(max - 2));
        assert!(parse_predicate(&is_not_null).is_ok());
    }

    #[test]
    fn one_level_past_the_limit_is_refused() {
        let max = MAX_PREDICATE_DEPTH;
        for text in [
            nots(max),
            chain(max + 1),
            parens(max),
            format!("{} OR x = 2", chain(max)),
            format!("{}x IS NOT NULL", "NOT ".repeat(max - 1)),
            format!("NOT ({})", chain(max - 1)),
        ] {
            assert_eq!(parse_predicate(&text), Err(ParseError::TooDeep));
        }
    }

    #[test]
    fn the_parser_does_not_recurse() {
        // On a shard worker's 2 MiB stack a recursive parser aborts the
        // process on both refused bodies; this one parses the deepest
        // accepted predicates, and refuses those bodies, on an eighth of
        // it.
        let worker = std::thread::Builder::new().stack_size(256 << 10);
        let handle = worker.spawn(|| {
            let max = MAX_PREDICATE_DEPTH;
            for text in [parens(max - 1), nots(max - 1), chain(max)] {
                assert!(parse_predicate(&text).is_ok());
            }
            let deep_not = format!("BIN D ON COUNT(*) WHERE {{ {} }};", nots(10_000));
            let long_and = format!("BIN D ON COUNT(*) WHERE {{ {} }};", chain(80_000));
            (parse_query(&deep_not).err(), parse_query(&long_and).err())
        });
        let (not, and) = handle.unwrap().join().unwrap();
        assert_eq!(not, Some(ParseError::TooDeep));
        assert_eq!(and, Some(ParseError::TooDeep));
        assert!(ParseError::TooDeep.to_string().contains("256"));
    }

    #[test]
    fn mixed_nesting_keeps_precedence_and_grouping() {
        let p =
            parse_predicate("NOT (a = 1 OR b = 2) AND c = 3 OR NOT NOT d = 4 AND (e = 5)").unwrap();
        assert_eq!(
            format!("{p}"),
            "((NOT ((a = 1 OR b = 2)) AND c = 3) OR (NOT (NOT (d = 4)) AND e = 5))"
        );
        let p = parse_predicate("a = 1 OR b = 2 OR c = 3 AND d = 4 AND e = 5").unwrap();
        assert_eq!(
            format!("{p}"),
            "((a = 1 OR b = 2) OR ((c = 3 AND d = 4) AND e = 5))"
        );
        let p = parse_predicate("((a = 1)) AND TRUE").unwrap();
        assert_eq!(p, Predicate::eq("a", 1_i64).and(Predicate::True));
    }

    #[test]
    fn unbalanced_parentheses_are_reported() {
        assert_eq!(
            parse_predicate("(a = 1 AND (b = 2)"),
            Err(ParseError::UnexpectedEnd { expected: ")" })
        );
        assert!(matches!(
            parse_query("BIN D ON COUNT(*) WHERE { (a = 1 };"),
            Err(ParseError::Unexpected { expected: ")", .. })
        ));
        assert!(matches!(
            parse_query("BIN D ON COUNT(*) WHERE { a = 1) };"),
            Err(ParseError::Unexpected { expected: "}", .. })
        ));
        assert!(matches!(
            parse_predicate("NOT"),
            Err(ParseError::UnexpectedEnd {
                expected: "attribute name"
            })
        ));
    }

    #[test]
    fn paper_example_state_population() {
        // From Section 3.1 of the paper (lightly adapted quoting).
        let q = parse_query(
            "BIN D ON COUNT(*) WHERE W = {state='AL', state='WY'} HAVING COUNT(*) > 5000000;",
        )
        .unwrap();
        assert_eq!(q.query.kind, QueryKind::Icq { threshold: 5e6 });
        assert_eq!(q.query.workload[0], Predicate::eq("state", "AL"));
    }
}
