//! Element-wise column arithmetic — the primitive behind derived metrics
//! such as the Figure 15 speedup column (`CPU time / GPU time`).
//!
//! Operations are null-propagating (any null operand yields a null cell)
//! and defined for numeric columns only; results are always float
//! columns. Binary ops require equal lengths.

use crate::column::Column;
use crate::error::{DfError, Result};
use crate::value::{DType, Value};

/// Element-wise binary operation between numeric columns.
fn zip_with(a: &Column, b: &Column, f: impl Fn(f64, f64) -> f64) -> Result<Column> {
    if a.len() != b.len() {
        return Err(DfError::LengthMismatch {
            expected: a.len(),
            actual: b.len(),
        });
    }
    for c in [a, b] {
        if !c.dtype().is_numeric() && c.dtype() != DType::Null {
            return Err(DfError::type_error(DType::Float, c.dtype()));
        }
    }
    let vals: Vec<Value> = (0..a.len())
        .map(|i| match (a.get_f64(i), b.get_f64(i)) {
            (Some(x), Some(y)) => Value::Float(f(x, y)),
            _ => Value::Null,
        })
        .collect();
    let mut out = Column::from_values(vals)?;
    if out.dtype() == DType::Null {
        out = Column::nulls_of(DType::Float, a.len());
    }
    Ok(out)
}

/// Element-wise unary map over a numeric column.
fn map_with(a: &Column, f: impl Fn(f64) -> f64) -> Result<Column> {
    if !a.dtype().is_numeric() && a.dtype() != DType::Null {
        return Err(DfError::type_error(DType::Float, a.dtype()));
    }
    let vals: Vec<Value> = (0..a.len())
        .map(|i| match a.get_f64(i) {
            Some(x) => Value::Float(f(x)),
            None => Value::Null,
        })
        .collect();
    let mut out = Column::from_values(vals)?;
    if out.dtype() == DType::Null {
        out = Column::nulls_of(DType::Float, a.len());
    }
    Ok(out)
}

impl Column {
    /// `self + other`, element-wise.
    pub fn add(&self, other: &Column) -> Result<Column> {
        zip_with(self, other, |a, b| a + b)
    }

    /// `self - other`, element-wise.
    pub fn sub(&self, other: &Column) -> Result<Column> {
        zip_with(self, other, |a, b| a - b)
    }

    /// `self * other`, element-wise.
    pub fn mul(&self, other: &Column) -> Result<Column> {
        zip_with(self, other, |a, b| a * b)
    }

    /// `self / other`, element-wise; division by zero yields null
    /// (pandas would produce ±inf — null keeps derived ratios clean).
    pub fn div(&self, other: &Column) -> Result<Column> {
        if self.len() != other.len() {
            return Err(DfError::LengthMismatch {
                expected: self.len(),
                actual: other.len(),
            });
        }
        let vals: Vec<Value> = (0..self.len())
            .map(|i| match (self.get_f64(i), other.get_f64(i)) {
                (Some(x), Some(y)) if y != 0.0 => Value::Float(x / y),
                _ => Value::Null,
            })
            .collect();
        let mut out = Column::from_values(vals)?;
        if out.dtype() == DType::Null {
            out = Column::nulls_of(DType::Float, self.len());
        }
        Ok(out)
    }

    /// `self op scalar`, element-wise.
    pub fn scale(&self, factor: f64) -> Result<Column> {
        map_with(self, |v| v * factor)
    }

    /// `self + scalar`, element-wise.
    pub fn offset(&self, delta: f64) -> Result<Column> {
        map_with(self, |v| v + delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(vals: &[f64]) -> Column {
        Column::from_f64(vals.to_vec())
    }

    #[test]
    fn basic_arithmetic() {
        let a = col(&[1.0, 2.0, 3.0]);
        let b = col(&[10.0, 20.0, 30.0]);
        assert_eq!(a.add(&b).unwrap().numeric_values(), vec![11.0, 22.0, 33.0]);
        assert_eq!(b.sub(&a).unwrap().numeric_values(), vec![9.0, 18.0, 27.0]);
        assert_eq!(a.mul(&b).unwrap().numeric_values(), vec![10.0, 40.0, 90.0]);
        assert_eq!(b.div(&a).unwrap().numeric_values(), vec![10.0, 10.0, 10.0]);
    }

    #[test]
    fn scalar_ops_and_map() {
        let a = col(&[1.0, 2.0]);
        assert_eq!(a.scale(3.0).unwrap().numeric_values(), vec![3.0, 6.0]);
        assert_eq!(a.offset(-1.0).unwrap().numeric_values(), vec![0.0, 1.0]);
    }

    #[test]
    fn nulls_propagate() {
        let a = Column::from_values(vec![Value::Float(1.0), Value::Null]).unwrap();
        let b = col(&[2.0, 3.0]);
        let sum = a.add(&b).unwrap();
        assert_eq!(sum.get(0), Value::Float(3.0));
        assert!(sum.is_null_at(1));
    }

    #[test]
    fn division_by_zero_is_null() {
        let a = col(&[1.0, 2.0]);
        let b = col(&[0.0, 4.0]);
        let q = a.div(&b).unwrap();
        assert!(q.is_null_at(0));
        assert_eq!(q.get(1), Value::Float(0.5));
    }

    #[test]
    fn int_columns_promote_to_float() {
        let a = Column::from_i64(vec![1, 2]);
        let b = Column::from_i64(vec![3, 4]);
        let s = a.add(&b).unwrap();
        assert_eq!(s.dtype(), DType::Float);
        assert_eq!(s.numeric_values(), vec![4.0, 6.0]);
    }

    #[test]
    fn error_cases() {
        let a = col(&[1.0]);
        let b = col(&[1.0, 2.0]);
        assert!(matches!(a.add(&b), Err(DfError::LengthMismatch { .. })));
        let s = Column::from_strs(["x"]);
        assert!(a.add(&s).is_err());
        assert!(s.scale(2.0).is_err());
    }

    #[test]
    fn all_null_columns() {
        let a = Column::nulls_of(DType::Float, 2);
        let b = col(&[1.0, 2.0]);
        let s = a.add(&b).unwrap();
        assert_eq!(s.count_valid(), 0);
        assert_eq!(s.dtype(), DType::Float);
    }
}
